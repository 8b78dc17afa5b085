// Package autograd implements define-by-run reverse-mode automatic
// differentiation on an explicit computational graph.
//
// The graph mirrors the paper's formalization G = ⟨n, l, E, u_1…u_n,
// f_{l+1}…f_n⟩ (§IV-B): every Value is a numbered vertex u_i carrying the
// result of a differentiable transformation f_i of its parents, and leaves
// are inputs or parameters. Pelta's Algorithm 1 (internal/core) walks this
// structure to decide which vertices and local jacobians to move into the
// enclave, so vertex identity, op labels and parent edges are first-class
// here rather than hidden inside closures.
//
// Graphs can run in two allocation regimes. A plain NewGraph allocates every
// forward/backward tensor from the Go heap, exactly as before. A graph built
// with NewGraphWithPool borrows every tensor from a tensor.Pool instead and
// hands them all back in one sweep when Release is called after the pass —
// the arena discipline that makes iterative attacks and training loops
// allocation-free in steady state. Vertices scrubbed into the Pelta enclave
// are exempt from the sweep: their buffers are withdrawn from the arena at
// Scrub time and are never recycled (see Release).
//
// Orthogonal to the allocation regime, a graph runs each pass either taped
// or in inference mode (SetInference, chosen between Release and the pass
// like SetTrackParamGrads). A taped pass is what training and the attack
// oracles run: every op stores its backward closure and the scratch only
// backward reads (normalized activations, max-pool argmax maps), and
// Backward replays the closures in reverse. An inference pass is the same
// op code running the same kernels — same bits — with the tape left out:
// no closure is built, no saved-for-backward scratch is kept, parameter
// leaves do not alias Param.Grad, and Backward panics naming the mode, so
// only the owner of a taped pass may differentiate it. What an inference
// pass still records is the graph itself — every vertex, its op label and
// its parents, on recycled Value objects — and any artifact requested with
// RequestRecorded, because core.Protect walks exactly that structure to
// shield a forward-only pass. Every pass that never calls Backward
// (serving replicas, models.Logits, oracle Logits, a ShieldedModel.Query
// without loss) runs in inference mode; there is no second forward
// implementation to keep in step.
//
// Derived shapes (Linear, Reshape, Permute) are built in stack arrays and
// vertices copy their parent lists, so in either mode a warm arena pass
// allocates nothing for graph bookkeeping; a taped pass allocates its
// closures.
//
// The normalizations share one implementation. LayerNorm (rows of D, a new
// affine channel every element), GroupNorm2d (rows of C/G·H·W, a new channel
// every H·W) and WSConv2d's weight standardization (rows of one output
// channel's kernel, no affine) run one row kernel: float64 two-pass
// statistics, a float32 (x−m)·(1/σ) normalize-and-affine loop, and one
// (g − mean(g) − x̂·mean(g⊙x̂))·(1/σ) input gradient. BatchNorm2d takes its
// statistics across the batch and shares the normalize-and-affine loop and
// the γ/β-gradient tail, but keeps its own input gradient: its float64
// γ·(1/σ) scale rounds differently, and the ResNet training goldens pin it.
//
// A Graph is confined to one goroutine: concurrent passes use one graph
// (and one pool) per worker over shared read-only parameters. Given the
// same inputs, forward and backward are bit-deterministic — reduction
// orders are fixed, so pooled and heap graphs produce identical numbers.
package autograd
