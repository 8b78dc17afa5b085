// Package fl implements the federated-learning substrate of Fig. 1 and the
// asynchronous round engine that scales it: a trusted aggregating server,
// honest clients fine-tuning the broadcast model on local shards, and the
// compromised/poisoning clients of the threat model that probe their local
// copy for adversarial examples (the threat Pelta mitigates). Local training
// is entered in one place: HonestClient, PoisoningClient and
// ModelReplacementClient share HonestClient.fit (a timed Fit + Snapshot,
// filling Samples and TrainNS) on the client's one models.Trainer, built on
// first use and Reset to fresh optimizer state every round, so a round
// trains exactly as models.Train would without rebuilding the trainer;
// only ShieldedHonestClient trains through core.EnclaveTrainer instead.
// Clients attach either in-process or over TCP (Conn, ServeClient, Dial).
//
// The TCP wire is one length-prefixed binary frame per message: a kind
// byte, varint header fields, then each tensor's name, rank, dims, count
// and little-endian float32 bits (frame.go has the grammar). Each end
// reuses one buffer for every frame, so encoding allocates nothing once
// warm, and a received message decodes into one []float32 and one []int
// slab. The reader checks every length against the bytes actually
// received before allocating and refuses truncated frames, oversized
// length prefixes, overflowing dims, counts that differ from the dims'
// product, trailing bytes and unknown kinds with a *FrameError; the round
// engine counts such a reply as that client dropping out of the round.
// WireBytes is the weights' exact size in a frame, computed without
// encoding. Checkpoints stay gob (SaveCheckpoint).
//
// AsyncServer is the one round engine: a Sampler draws a client cohort per
// round, a goroutine worker pool runs their updates concurrently over the
// Conn transport, and a BufferedAggregator merges updates as they arrive —
// closing a round at Quorum instead of barriering on the slowest client,
// folding stragglers in with a (1+staleness)^-λ discount (StalenessFedAvg),
// and refusing duplicate deliveries, beyond-horizon updates and updates
// carrying a NaN or ±Inf coordinate (BufferedAggregator.Offer is the single
// point where a client's bytes enter aggregation). The paper's synchronous
// loop — broadcast, barrier on all clients, FedAvg — is the same engine
// with AsyncConfig.Deterministic set; Workers 1 visits the clients one at a
// time, Workers 0 trains them in parallel, and the result is the same bit
// for bit.
//
// Robust aggregation under poisoning: the engine takes a pluggable
// Aggregator defense — Krum/Multi-Krum selection, coordinate-wise trimmed
// mean and median, and norm-clipped FedAvg (NewAggregator) — that bounds
// what a minority of malicious clients can do to the global model. The
// attacker side fields three poison strategies: the label-flip shard
// poisoner (PoisoningClient), and the update-space SignFlipClient and
// ModelReplacementClient (scaled boosting) the defenses exist to stop.
// Robust rules compose with the engine's staleness discounts; a nil
// Aggregator means FedAvgAgg. Every mean goes through one kernel
// (weightedMean) except FedAvg itself, whose float32 count fraction seeded
// runs are pinned to, and validateUpdates is the one shape/count/finite
// check in front of all of them. Checkpoints written by SaveCheckpoint
// stamp which defense trained the weights (CheckpointMeta), so a serving
// warm start can report the model's provenance.
//
// Round-phase telemetry: every RoundResult carries an obs.RoundSpan
// breaking the round's wall time into client training (client-measured
// TrainNS, summed over the merged cohort), transport (round-trip wall
// minus training), aggregation (rule + apply) and broadcast (snapshot +
// wire size), stamped on the engine's injectable Now clock.
// RoundSpans extracts them for NDJSON export (cmd/flsim -trace) and
// eval.SummarizeRoundSpans; RoundMetrics renders the cumulative phase
// totals as registry metrics for the unified exposition.
//
// Concurrency: clients never run two updates at once (the engine tracks
// busy devices), each client owns its model replica, and the aggregator is
// confined to the server's event loop — no locks anywhere on the round
// path. Determinism: samplers are pure functions of (seed, round), every
// malicious client reseeds its probe per round from its own seed, and
// AsyncConfig.Deterministic barriers each round and merges in client order
// so a FullSampler run reproduces a plain sequential broadcast → update →
// FedAvg loop bit-identically at any worker count — the property
// Table-reproduction runs rely on and the test suite pins against an
// independent reference loop.
//
// SweepSpec/RunSweep execute a scenario matrix — {fleet size × non-IID
// shard skew × shield on/off × probe attack × poisoning fraction × poison
// strategy × aggregation defense} — one asynchronous federation per cell,
// emitting one SweepRow per cell for cmd/flsim to serialize and
// internal/eval to summarize (including the defense × poisoning
// robustness table).
package fl
