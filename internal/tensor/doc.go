// Package tensor provides dense float32 n-dimensional tensors and the
// numerical kernels (elementwise ops, matrix multiplication, convolution,
// fused attention, pooling) used by the autograd engine, the model zoo and
// the attack suite.
//
// Tensors are row-major and contiguous. The package is deliberately free of
// any autodiff logic: it only moves numbers around.
//
// # One kernel family
//
// Every kernel is destination-passing: a function suffixed Into writes its
// result into a caller-provided dst (heap-allocated with New or borrowed
// from a Pool) and one suffixed In mutates its first operand in place;
// neither allocates a result. Only the constructors (New, FromSlice, Full,
// Ones, RNG.Normal/Uniform, Pool.Get*), the view/clone methods and the two
// cold reporting helpers Sub and Abs return a fresh *Tensor.
//
// The 2-D kernels (MatMulInto, MatMulTransBInto, MatMulTransAInto,
// MatMulTransAAddInto, SoftmaxRowsInto, SumRowsInto, AddRowVectorIn) take
// the matrix view of an operand: any rank >= 2, the last dimension is the
// column count and all leading dimensions fold into rows, so a [B,T,D]
// activation runs through them as the [B*T, D] matrix without a reshaped
// header being built. Rank < 2, an inner-dimension mismatch and a
// destination of the wrong length still panic.
//
// # Parallelism
//
// The hot kernels (tiled matmul, batched convolution forward/backward,
// transposed convolution, fused attention) shard their outermost loop over a
// shared worker pool of persistent goroutines sized to GOMAXPROCS. Work
// below parallelThreshold (~64k multiply-adds) runs inline — the model-zoo
// shapes used in -short tests sit below it on purpose. The pool uses
// caller-runs scheduling: one recycled dispatch record per call is offered
// to the pool non-blocking and the calling goroutine always executes chunks
// itself, so kernels invoked from inside another parallel region (or from
// concurrent callers such as serving replicas) degrade to inline execution
// instead of oversubscribing or deadlocking. Dispatch allocates nothing
// beyond the caller's body closure. A kernel panic in any chunk, on a
// helper or on the caller, is re-raised to the caller with its original
// value once every chunk has stopped.
//
// PELTA_KERNEL_WORKERS overrides the worker count at process start
// (0 = GOMAXPROCS); SetKernelWorkers does the same at runtime. Setting 1
// bypasses sharding entirely and runs the historical single-threaded loop.
//
// # Determinism
//
// Every kernel is bit-deterministic at any worker count: parallel shards
// own disjoint output ranges and each output element is reduced in a fixed
// serial order, so workers=1 and workers=N produce identical float32 bits
// (pinned by the property tests in parallel_test.go). Cache-blocked tiling
// preserves the same guarantee by keeping per-element summation order
// unchanged (k-blocks start on even indices to match the pairwise saxpy
// kernel). Gradient reductions that cross shard boundaries (conv gw/gb)
// accumulate per-sample partials in scratch and reduce serially in sample
// order.
//
// The size-bucketed Pool is safe for concurrent use, but the hot paths give
// each worker its own pool so the mutex stays uncontended. RNG wraps
// math/rand with an explicit seed — every random draw in the repo flows
// through it, which is what makes experiments replayable.
package tensor
