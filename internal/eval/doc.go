// Package eval implements the paper's evaluation protocol (§V): astuteness
// (robust accuracy) over correctly classified samples, the attack × defense
// matrix of Table III, the SAGA-vs-ensemble grid of Table IV, the Fig. 3
// trajectory study and the Fig. 4 perturbation dumps, plus plain-text table
// renderers shaped like the paper's tables.
//
// The harness also consumes the FL-scale scenario sweeps of cmd/flsim:
// ReadSweepRows decodes the NDJSON rows a sweep emits and SummarizeSweep
// condenses them into per-attack shield deltas, IID-vs-skewed accuracy and
// engine throughput. Quantiles is the exact sorted-slice p50/p95/p99 shared
// by the sweep summaries and (as the validation reference for the P²
// streaming sketches) the internal/serve metrics.
//
// The detection-quality harness scores the serving layer's stateful probe
// detector (TestDetectGoldenTrace gates it at ≥ 90% detection, ≤ 5% benign
// FPR): BuildDetectStreams records real attack runs (fgsm, pgd, apgd, saga,
// square) through attack.RecordingOracle, plus benign client streams, and
// ReplayDetect submits them to a detecting serve.Service and returns the
// per-family detection-rate vs benign-FPR table (empty families render
// "n/a", never a fake 0%).
//
// The trace summaries consume the observability layer's span records:
// SummarizeTrace condenses obs.SpanRecords into a per-route × per-stage
// latency table (p50/p95/mean per stage plus each stage's share of the
// end-to-end mean — the five stages partition the span exactly, so the
// shares sum to 100%), with per-kernel attribution and a shed/flag
// causality table keyed by outcome; ValidateSpans is the structural gate
// that TestGoldenTraceDeterministic and bench/'s traced pass apply
// (negative stage durations, stage sums drifting from the end-to-end
// span, served spans missing lifecycle offsets all fail);
// SummarizeRoundSpans renders FL round-phase spans as the
// train/transport/aggregate/broadcast breakdown line cmd/flsim prints.
// Evaluation is deterministic given an AttackSet seed: each attack queries
// one oracle per defender with the whole batch, and the kernel worker count
// (PELTA_KERNEL_WORKERS) never changes results, only wall time.
package eval
