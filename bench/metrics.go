package main

import "time"

// metricDef is one row of BENCHMARK.json. Bound, set on end-to-end metrics
// only, is the share of the parent's median by which the metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; what an "operation" is differs per workload (a served
// line, a PGD iteration, an FL round) and is spelled out in the README.
// Bounds are at least three times the run-to-run spread measured when the
// benchmark was defined (README, "Measured spreads").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
}

// perLayer lists the single-layer metrics of the traced pass. A metric of a
// layer the workload does not touch reads 0 there, which is itself the
// prediction that a change to that layer leaves the workload alone.
var perLayer = []metricDef{
	{Name: "tensor.matmul256_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul256_gflops_w1", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "tensor.matmul_model_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.attention_fwd_us", Unit: "us", Better: "lower"},
	{Name: "tensor.attention_bwd_us", Unit: "us", Better: "lower"},
	{Name: "tensor.convtranspose2d_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_frac", Unit: "frac", Better: "higher"},
	{Name: "tensor.attention_frac", Unit: "frac", Better: "higher"},
	{Name: "tensor.conv_frac", Unit: "frac", Better: "higher"},
	{Name: "tensor.unattributed_frac", Unit: "frac", Better: "lower"},
	{Name: "autograd.forward_ms_b8", Unit: "ms", Better: "lower"},
	{Name: "autograd.fwdbwd_ms_b8", Unit: "ms", Better: "lower"},
	{Name: "autograd.allocs_per_forward", Unit: "count", Better: "lower"},
	{Name: "models.train_step_ms_b16", Unit: "ms", Better: "lower"},
	{Name: "models.params", Unit: "count", Better: "lower"},
	{Name: "tee.store_load_us", Unit: "us", Better: "lower"},
	{Name: "tee.world_switches_per_query", Unit: "count", Better: "lower"},
	{Name: "tee.bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "tee.enclave_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.query_ms_b1", Unit: "ms", Better: "lower"},
	{Name: "core.query_ms_b8", Unit: "ms", Better: "lower"},
	{Name: "core.query_grad_ms_b8", Unit: "ms", Better: "lower"},
	{Name: "core.shield_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "attack.grad_ms", Unit: "ms", Better: "lower"},
	{Name: "attack.step_self_ms", Unit: "ms", Better: "lower"},
	{Name: "attack.robust_acc", Unit: "frac", Better: "higher"},
	{Name: "attack.queries", Unit: "count", Better: "higher"},
	{Name: "detect.observe_us_w64", Unit: "us", Better: "lower"},
	{Name: "detect.observe_us_w1024", Unit: "us", Better: "lower"},
	{Name: "detect.flagged_lines", Unit: "count", Better: "lower"},
	{Name: "serve.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.admission_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.infer_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.span_e2e_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "lines", Better: "higher"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.replica_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.codec_us_per_line", Unit: "us", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.errors", Unit: "count", Better: "lower"},
	{Name: "fl.client_update_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.round_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.snapshot_apply_us", Unit: "us", Better: "lower"},
	{Name: "fl.up_bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "fl.down_bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "fl.final_acc", Unit: "frac", Better: "higher"},
	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "obs.trace_p50_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "go.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "host.calib_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "host.calib_drift_frac", Unit: "frac", Better: "lower"},
}

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// trained says the workload starts from the trained defender; FL
	// starts from a fresh model.
	trained bool
	build   func(fx *fixture, tr *tracer) (env, error)
}

// env is one workload, set up and ready: run measures it (and may be called
// again), layers attributes a traced run, close stops what set-up started
// and waits for it.
type env interface {
	run(d time.Duration) (*pass, error)
	layers(p *pass, spans []span) (map[string]float64, error)
	close()
}

var workloads = []workloadDef{
	{Name: "serve_saturated", trained: true,
		Why:   "closed loop of 16-line POSTs on 2 connections, detector on: capacity of the whole serving path with full batches",
		build: func(fx *fixture, tr *tracer) (env, error) { return buildServe(fx, tr, false) }},
	{Name: "serve_paced", trained: true,
		Why:   "open loop of 1-line POSTs at 200/s (a tenth of capacity), detector off: the latency floor, where batches are 1 and MaxDelay is paid in full",
		build: func(fx *fixture, tr *tracer) (env, error) { return buildServe(fx, tr, true) }},
	{Name: "attack_clear", trained: true,
		Why:   "PGD against the clear oracle: autograd forward and input-gradient backward only, no serving, detector or enclave",
		build: func(fx *fixture, tr *tracer) (env, error) { return buildAttack(fx, tr, false) }},
	{Name: "attack_shielded", trained: true,
		Why:   "the same PGD through the enclave boundary and the upsampled adjoint: a tee or core change moves this and leaves attack_clear still",
		build: func(fx *fixture, tr *tracer) (env, error) { return buildAttack(fx, tr, true) }},
	{Name: "fl_round", trained: false,
		Why:   "multi-Krum rounds over 4 TCP clients, one sign-flipping: parameter gradients, optimizer, gob transport and robust aggregation",
		build: func(fx *fixture, tr *tracer) (env, error) { return buildFL(fx, tr) }},
}
