// Package pelta reproduces "Mitigating Adversarial Attacks in Federated
// Learning with Trusted Execution Environments" (Queyrut, Schiavoni, Felber,
// ICDCS 2023). The public surface lives in the internal packages:
//
//   - internal/core     — the Pelta shielding scheme (Algorithm 1)
//   - internal/tee      — the TrustZone-style enclave simulation
//   - internal/models   — ViT / ResNet-v2 / BiT defenders
//   - internal/attack   — FGSM, PGD, MIM, APGD, C&W, SAGA, BPDA upsampling
//   - internal/fl       — the asynchronous sharded round engine (client
//     sampling, staleness-aware buffered aggregation; its deterministic
//     mode is the paper's synchronous FedAvg loop),
//     robust aggregation defenses (Krum/Multi-Krum, trimmed mean, median,
//     norm clipping), honest/compromised/poisoning/Byzantine clients, and
//     the scenario-sweep runner
//   - internal/ensemble — random-selection ensemble defense
//   - internal/eval     — Tables I/III/IV, Figs. 3/4, sweep and serving-load
//     summaries, exact quantile helpers
//   - internal/serve    — the shielded-inference serving subsystem: replica
//     pools, micro-batching scheduler, streaming metrics, and the adaptive
//     control plane (replica autoscaler, weighted-fair per-route admission,
//     phased load generation, stateful probe detection)
//   - internal/detect   — per-client query-similarity caches: pooled
//     fingerprints, K-th-NN near-duplicate matching, m-of-w flagging with
//     TTL expiry and flag decay on an injected clock
//   - internal/obs      — the unified observability layer: per-request
//     span records (detect/admission/queue/batch/infer stages plus
//     per-kernel attribution), FL round-phase spans, and the metric
//     registry behind the JSON and Prometheus text expositions
//   - internal/lint     — the peltalint static analyzer: compile-time
//     enforcement of the repo's determinism, clock-injection, and
//     pool-hygiene invariants, plus a CFG/dataflow engine with
//     interprocedural summaries backing the flow-sensitive rules
//     (shieldtaint confidentiality tracking, errpath, lockorder,
//     clockcomplete); cmd/peltalint is the CLI / CI gate
//
// bench_test.go regenerates every table and figure; timings live in the
// seeded bench/ module (its own go.mod, declared by BENCHMARK.json), not
// here. cmd/peltabench is the command-line entry point, cmd/flsim runs
// federations and scenario sweeps, cmd/peltaserve serves shielded inference
// over HTTP, and examples/ holds runnable scenarios.
package pelta
