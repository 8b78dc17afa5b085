// Package serve turns a Pelta-shielded model into a multi-client inference
// service — the serving layer of the ROADMAP's traffic-scale north star.
//
// Key types:
//
//   - Replica / ReplicaPool — N independent sequential inference engines
//     behind one handle. A shielded replica owns its own enclave, model
//     copy and pooled graph arena (core.ShieldedModel is sequential-only);
//     NewShieldedPool and NewClearPool build the two flavors. Both run
//     every batch in autograd's inference mode: no backward closure, no
//     Param.Grad read or written, same logits bit for bit.
//   - Service — the micro-batching scheduler: Submit enqueues one sample,
//     a batcher coalesces queued requests into tensor batches under a
//     MaxBatch/MaxDelay policy — a partial batch waits up to MaxDelay only
//     while requests are still in admission or every worker is busy, and
//     otherwise goes straight to an idle worker — and one worker goroutine
//     per live replica runs batches and fans logit rows back to
//     per-request futures. A
//     panic under Replica.Logits (a shape or bounds check in the kernels)
//     is recovered on the worker and handled like a returned error: every
//     line of that batch leaves with the error outcome, the worker keeps
//     running and the same replica serves the next batch — its pass starts
//     with Release/FlushAll, which rebuild arena and enclave state. Only
//     the worker's own goroutine is covered (a panic on a kernel helper
//     goroutine still ends the process); quarantining and rebuilding a
//     replica that keeps failing is not done here.
//   - Config — batching policy plus admission control: the queue is
//     bounded (QueueDepth) and requests are shed with the typed
//     ErrOverloaded when the queue is full or a deadline expires before
//     service, so overload degrades predictably instead of growing an
//     unbounded backlog. Malformed samples (wrong shape, non-finite
//     values) are refused with a per-route Rejected counter.
//
// The adaptive control plane (both knobs off by default — the service then
// behaves exactly like the statically provisioned scheduler):
//
//   - AutoscaleConfig — the replica autoscaler: a decision loop on the
//     service clock grows/shrinks the live worker set between Min and Max,
//     scaling up on queue depth or a windowed p95 above TargetP95 and down
//     only after DownStable consecutive calm ticks (hysteresis), with a
//     Cooldown between any two actions so the loop cannot flap. Decisions
//     land in Service.ScaleEvents and the Metrics gauges (live_replicas,
//     scale_ups, scale_downs), so /metrics shows why the fleet moved.
//   - AdmissionConfig — weighted-fair admission: every route owns a token
//     bucket refilled at Rate·w/ΣW, so an "adv" probe flood sheds at its
//     own bucket instead of filling the shared queue and starving "benign"
//     traffic. Refill is lazy on the service clock (fake-clock testable).
//   - Metrics — the serving metrics core: per-route counters (offered,
//     served, shed, rejected, errors, mean batch) and p50/p95/p99 latency via the
//     P² streaming quantile sketch (P2Quantile), validated in tests
//     against the exact eval.Quantiles on the same samples. One exit per
//     request: Metrics.Served counts an answered one; any other leaves
//     through Service.unserved with its obs.Outcome* value, which
//     Metrics.Unserved maps to a counter (rejected → rejected, error →
//     errors, shed-* → shed, shed-detect also detect_shed) and which,
//     when tracing, is stamped on the always-emitted span. So requests =
//     served + shed + rejected + errors by construction, and offered −
//     requests is the in-flight count.
//   - NewHandler — the HTTP surface (NDJSON /query, /metrics, /healthz)
//     used by cmd/peltaserve. /query summarizes its line outcomes in
//     X-Pelta-Served/-Shed/-Errors headers and answers 503 when no line
//     at all was served, so load clients detect total overload without
//     parsing the body. The X-Pelta-Client header names the probe-detector
//     client identity (falling back to the remote host). NewHandlerWith
//     adds HandlerOptions — currently Pprof, mounting net/http/pprof
//     under /debug/pprof/. A /query line of the shape json.Marshal gives
//     a QueryRequest — {"x":[…]} with an optional "deadline_ms", either
//     order, JSON whitespace — is decoded without encoding/json: each
//     number is checked against the JSON grammar and parsed with
//     strconv.ParseFloat at its field's bit size (the call encoding/json
//     makes), straight into one float32 slab per body that the line
//     tensors then point into, so the slab is never reused across bodies.
//     Every other line falls back to json.Unmarshal on that line, so
//     what is accepted, every error message and every float32 bit are
//     encoding/json's; FuzzDecodeQueryLine checks the two agree on every
//     line the fast path takes. A deadline beyond time.Duration's range
//     is no deadline.
//
// The tracing and telemetry layer (Config.Trace, off by default — the
// untraced Submit path allocates nothing for it):
//
//   - TraceConfig — per-request span tracing on the service clock: every
//     sampled request carries an obs.SpanRecord whose offsets bracket the
//     detect lookup, admission wait, queue residency, batch assembly and
//     replica inference, with per-kernel attribution (matmul / conv /
//     attention nanoseconds via the tensor kernel hook) diffed around the
//     forward. Sample sets the traced fraction; anomalies — shed,
//     rejected, errored, deadline-missed or detector-flagged requests —
//     are always traced once tracing is on. Records land in a bounded
//     ring (Cap, default 4096) drained by Tracer().Records(), streamed as
//     NDJSON on GET /trace, and summarized by eval.SummarizeTrace.
//   - Registry — the unified obs.Registry behind GET /metrics?format=prom
//     (Prometheus text v0) and the JSON exposition: serve counters and
//     latency quantiles, detector stats, autoscaler events, kernel-stage
//     totals and per-replica TEE gauges (enclave used/limit bytes, world
//     switches, shield overhead) from one Gather.
//
// The stateful probe detector (Config.Detect, off by default — client-less
// Submit traffic bypasses it entirely, so static serving behavior is
// preserved byte for byte):
//
//   - DetectConfig — embeds detect.Config (per-client fingerprint rings,
//     K-th-NN near-duplicate matching, m-of-w flagging on the service
//     clock) and adds the admission Action for flagged clients: DetectLog
//     observes only (Result.Flagged plus metrics), DetectDeprioritize
//     charges flagged queries to the FlaggedRoute admission bucket so
//     probe streams compete for a starvable share, DetectShed rejects
//     them with ErrFlagged (wrapping ErrOverloaded). SubmitFrom is the
//     detected submission path; the detector's verdicts land in the
//     per-route metrics (probed, probe_hits, flagged_queries, detect_shed
//     — a subset of shed: the shed-detect outcome counts into both) and
//     the flag_events total. eval.ReplayDetect scores it on recorded
//     attack runs.
//
// Concurrency: Submit is safe from any number of goroutines; replicas are
// never queried concurrently (one worker each, and a scale-up never reuses
// a replica whose previous worker is still draining); Metrics is
// mutex-guarded. Determinism: batched forwards are row-independent, so a
// sample's logits are bit-identical whether it is served in a batch of 1
// or MaxBatch (the fl checkpoint round-trip test pins this), and the
// coalescing policy is deterministic under the injectable Clock. The whole
// time surface — batching, deadline shedding, admission buckets, autoscale
// ticks, HTTP latencies, metrics uptime — reads one Clock, so every layer
// agrees on "now" under a fake clock.
package serve
