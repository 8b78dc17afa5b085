// Command peltaserve serves shielded inference over HTTP.
//
// The binary wraps internal/serve around a (optionally checkpoint-warmed)
// ViT defender: -replicas independent Pelta-shielded replicas behind the
// micro-batching scheduler (-max-batch/-max-delay/-queue; a partial batch
// waits up to -max-delay only while requests are still in admission or
// every replica is busy), with -shield selecting shielded or clear
// replicas.
//
// The adaptive control plane is opt-in: -max-replicas enables the replica
// autoscaler (the pool is built at the upper bound, -min-replicas workers
// start, and the decision loop scales on queue depth and the windowed p95
// against -slo-p95); -admit-rate enables weighted-fair admission, with
// -route-weights splitting the rate across routes (e.g. "benign=8,adv=1"
// confines an adversarial probe flood to its own token bucket). With both
// flags unset the deployment is the static scheduler of earlier releases.
//
// The server listens on -addr:
//
//	POST /query   — NDJSON, one {"x":[...],"deadline_ms":n} per line;
//	                one {"class":c,"ms":t,"batch":b} per line back
//	                (?logits=1 echoes logit rows)
//	GET  /metrics — per-route counters and p50/p95/p99 latency
//	GET  /healthz — liveness
//
// The listener is an http.Server with fixed read-header, read, write and
// idle timeouts (a stalled client cannot pin a goroutine and its line
// buffer; the write timeout outlasts a full /query body and a 30 s pprof
// profile). SIGINT/SIGTERM drain it: stop accepting, give requests in
// flight 15 s, then close the scheduler — a clean exit, status 0.
//
// -detect turns on the stateful probe detector (-detect-k, -detect-thresh,
// -detect-window, -detect-action), keyed by the X-Pelta-Client header;
// -trace-sample streams span records on GET /trace and -pprof mounts
// net/http/pprof. Load testing lives outside the binary: bench/ drives the
// real HTTP surface, and the control-plane, trace and detection gates are
// go test assertions in internal/serve and internal/eval.
//
// Weights warm-start from an internal/fl checkpoint (-checkpoint) written
// by cmd/flsim or fl.SaveCheckpoint; a stamped checkpoint's provenance
// (which aggregation defense trained the served model, over how many
// federation rounds) is reported on startup. Without one, the defender is
// fitted in-process for -epochs on the synthetic train split.
package main
