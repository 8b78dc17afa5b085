// Package detect implements stateful probe detection for the serving
// layer: a per-client similarity cache over recent query fingerprints that
// catches the signature the paper's threat model leaves on the wire —
// iterative evasion attacks (PGD, APGD, SAGA, Square) submit sequences of
// near-duplicate inputs, because every iterate stays inside the same
// ε-ball around one source sample. A nearest-neighbor index over a
// client's recent queries sees that sequence even though each individual
// query is benign-looking, opening a defense axis Pelta itself does not
// cover: detecting the attack instead of only degrading its gradient.
//
// Key pieces (plain Go, no dependencies — the FAISS-style flat index of
// SNIPPETS.md Snippet 1 reduced to what serving admission needs):
//
//   - Fingerprint — a query's compact signature: the [C,H,W] sample is
//     average-pooled onto a Grid×Grid cell grid per channel, mean-centered
//     (so the dataset's brightness jitter is not a similarity signal) and
//     L2-normalized. Plain sequential loops, so fingerprints are
//     bit-identical at any kernel worker count.
//   - Neighbors / Distance — brute-force k-NN over a fingerprint set under
//     cosine distance (one minus the inner product of the normalized
//     fingerprints), with deterministic tie ordering (equal distances rank
//     by insertion order). At ring-buffer scale (≤ a few hundred entries)
//     flat search beats any index structure and stays exactly
//     reproducible.
//   - Detector — the per-client state machine. Observe computes the query
//     fingerprint, measures the K-th-nearest-neighbor distance over the
//     client's ring buffer, records a hit when it is ≤ Threshold, and
//     flags the client when ≥ MatchM of its last MatchW queries hit.
//     Fingerprints expire after TTL and a flag decays Decay after the last
//     flagging query — both on caller-supplied timestamps (the serving
//     layer passes its injected Clock), so expiry and decay are exactly
//     testable under a fake clock and never read wall time themselves.
//
// Concurrency: a Detector is safe for concurrent use; one mutex guards the
// client table. Determinism: a client's decisions depend only on its own
// query order and the timestamps it was observed at — never on other
// clients' traffic, goroutine scheduling, or worker counts — so a seeded
// trace replays bit-identically (pinned by the property tests).
//
// The serving integration lives in internal/serve: Config.Detect runs a
// Detector inside Submit admission as a third signal next to the token
// buckets, with a configurable action (log, deprioritize, shed).
package detect
