// Command peltaserve serves shielded inference over HTTP and load-tests it.
//
// The binary wraps internal/serve around a (optionally checkpoint-warmed)
// ViT defender: -replicas independent Pelta-shielded replicas behind the
// micro-batching scheduler (-max-batch/-max-delay/-queue), with -shield
// selecting shielded or clear replicas.
//
// The adaptive control plane is opt-in: -max-replicas enables the replica
// autoscaler (the pool is built at the upper bound, -min-replicas workers
// start, and the decision loop scales on queue depth and the windowed p95
// against -slo-p95); -admit-rate enables weighted-fair admission, with
// -route-weights splitting the rate across routes (e.g. "benign=8,adv=1"
// confines an adversarial probe flood to its own token bucket). With both
// flags unset the deployment is the static scheduler of earlier releases.
//
// Serving mode (default) listens on -addr:
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
// Load-generator mode (-loadgen) skips HTTP and drives the service
// in-process with mixed traffic — benign validation samples plus FGSM/PGD
// probes crafted against the same weights (-adv-frac, -attack) — along an
// open-loop phase trace, then prints the serving report: the per-phase,
// per-route shed table, throughput, exact latency quantiles, benign
// accuracy and robust accuracy under attack traffic ("n/a" when a stream
// served nothing). There is one load mode: -phases gives the trace
// ("rate:dur:advfrac,..." steps — the harness behind the CI autoscale
// smoke cell and the README's static-vs-autoscaled table), and without it
// the trace is the single phase that launches -n requests at -rate with
// the pool's adversarial share. -benchjson dumps the same numbers
// machine-readably; CI's autoscale, trace and detection gates parse it.
//
// Weights warm-start from an internal/fl checkpoint (-checkpoint) written
// by cmd/flsim or fl.SaveCheckpoint; a stamped checkpoint's provenance
// (which aggregation defense trained the served model, over how many
// federation rounds) is reported on startup. Without one, the defender is
// fitted in-process for -epochs on the synthetic train split.
package main
