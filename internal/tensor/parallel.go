package tensor

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the parallel backbone of the kernel layer: one shared,
// bounded pool of persistent worker goroutines that every data-parallel
// kernel (tiled matmul, batched convolution, fused attention) dispatches
// through, instead of spawning ad-hoc goroutines per call.
//
// Scheduling is caller-runs: parallelFor describes the call in one dispatch
// record (body, chunking, an atomic cursor, the chunks still running),
// offers that record to the pool a bounded number of times without
// blocking, and then executes chunks itself until none remain. Records are
// recycled, so a dispatch allocates nothing of its own. Three properties
// follow:
//
//   - Nesting guard. A kernel running inside another parallel region (a
//     matmul inside a batch-parallel convolution) or beside concurrent
//     callers (serving replicas, FL clients) cannot oversubscribe the
//     machine: the helper budget is the fixed pool size no matter how many
//     concurrent callers exist, and when all workers are busy the nested
//     call simply degrades to inline execution on its own goroutine. Workers never
//     block on anything but strictly-nested work, so no cycle of waits —
//     and hence no deadlock — can form.
//
//   - Bit determinism. Every chunk is executed by exactly one goroutine
//     with the same intra-chunk iteration order as the serial path, and
//     chunk boundaries depend only on (n, worker count), never on
//     scheduling. Kernels built on parallelFor therefore produce results
//     bit-identical to their single-threaded runs as long as chunk writes
//     are disjoint and cross-chunk reductions are performed serially in a
//     fixed order (see Conv2dBackwardInto).
//
//   - Panics reach the caller after every chunk has stopped. A chunk that
//     panics, on a helper or on the caller, parks the first panic value in
//     the record and counts itself finished; the caller re-panics with that
//     value once all chunks are done. A pool worker never dies of a kernel
//     panic, and no helper is still writing when the caller's recovery
//     (serve's safeLogits, for one) runs.
//
// The single-threaded path is taken whenever the sharded work is below
// parallelThreshold, the effective worker count is 1 (GOMAXPROCS(0)==1 or
// PELTA_KERNEL_WORKERS=1), or there is nothing to shard.

// kernelWorkerOverride pins the kernel worker count when positive; 0 means
// auto (runtime.GOMAXPROCS). Set from PELTA_KERNEL_WORKERS at init and from
// SetKernelWorkers at runtime.
var kernelWorkerOverride atomic.Int64

func init() {
	if v, ok := os.LookupEnv("PELTA_KERNEL_WORKERS"); ok {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			kernelWorkerOverride.Store(int64(n))
		}
	}
}

// KernelWorkers returns the effective kernel parallelism: the
// PELTA_KERNEL_WORKERS / SetKernelWorkers override when pinned, otherwise
// runtime.GOMAXPROCS(0). A value of 1 forces every kernel onto the serial
// deterministic path.
func KernelWorkers() int {
	if n := int(kernelWorkerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetKernelWorkers pins the kernel worker count (0 restores auto) and
// returns the previous override. It is the programmatic twin of the
// PELTA_KERNEL_WORKERS environment variable, used by tests and by hosts
// that must pin determinism-sensitive cells.
func SetKernelWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(kernelWorkerOverride.Swap(int64(n)))
}

// workerPool is the shared set of persistent helper goroutines. Workers
// block on the task channel when idle and cost nothing; the pool is started
// lazily on the first parallel dispatch.
type workerPool struct {
	tasks chan *dispatch
	size  int
}

var (
	poolOnce   sync.Once
	sharedPool *workerPool
)

// minPoolWorkers floors the pool size so test hosts with few cores can
// still exercise (and race-detect) the parallel paths by raising
// GOMAXPROCS above the physical core count.
const minPoolWorkers = 8

func kernelPool() *workerPool {
	poolOnce.Do(func() {
		size := runtime.GOMAXPROCS(0)
		if size < minPoolWorkers {
			size = minPoolWorkers
		}
		p := &workerPool{tasks: make(chan *dispatch, size), size: size}
		for i := 0; i < size; i++ {
			go func() {
				for d := range p.tasks {
					d.runChunks()
					d.release()
				}
			}()
		}
		sharedPool = p
	})
	return sharedPool
}

// parallelThreshold is the amount of work (multiply-add count) below which
// kernels run serially; sharding tiny operations costs more than it saves.
const parallelThreshold = 1 << 16

// shouldParallel reports whether a kernel sharding n independent units of
// `work` total multiply-adds is worth dispatching to the pool.
func shouldParallel(n, work int) bool {
	return work >= parallelThreshold && n >= 2 && KernelWorkers() > 1
}

// dispatch is one parallel region: the body, its chunking, the cursor that
// hands out chunks, the count of chunks still running and the first panic
// a chunk raised. The caller and every helper it offered hold a reference;
// whoever drops the last one returns the record to dispatchRecords, so a
// helper dequeued after the caller has returned still finds its own region
// (with the cursor exhausted) and never a reused one.
type dispatch struct {
	body       func(lo, hi int)
	n, nchunks int
	next       atomic.Int64
	chunks     sync.WaitGroup
	refs       atomic.Int32
	panicked   atomic.Bool
	panicVal   any
}

var dispatchRecords = sync.Pool{New: func() any { return new(dispatch) }}

// runChunks claims and runs chunks until the cursor is exhausted.
func (d *dispatch) runChunks() {
	for {
		i := int(d.next.Add(1)) - 1
		if i >= d.nchunks {
			return
		}
		d.runChunk(i)
	}
}

// runChunk runs chunk i and marks it finished however body leaves: a panic
// is parked for the caller (the first one wins) instead of unwinding the
// goroutine, which on a pool worker would end the process.
func (d *dispatch) runChunk(i int) {
	defer func() {
		if p := recover(); p != nil && d.panicked.CompareAndSwap(false, true) {
			d.panicVal = p
		}
		d.chunks.Done()
	}()
	d.body(i*d.n/d.nchunks, (i+1)*d.n/d.nchunks)
}

// release drops one reference; the last holder recycles the record.
func (d *dispatch) release() {
	if d.refs.Add(-1) == 0 {
		d.body, d.panicVal = nil, nil
		d.panicked.Store(false)
		dispatchRecords.Put(d)
	}
}

// parallelFor shards [0,n) into chunks and runs body on each chunk, using
// the shared worker pool when the work is large enough and the serial
// inline path otherwise. body(lo, hi) must write only state owned by
// [lo,hi); results are then bit-identical for every worker count. A panic
// in any chunk is re-raised here, with its original value, once every
// chunk has stopped.
func parallelFor(n, work int, body func(lo, hi int)) {
	w := KernelWorkers()
	if w <= 1 || n < 2 || work < parallelThreshold {
		body(0, n)
		return
	}
	pool := kernelPool()
	if w > pool.size+1 {
		w = pool.size + 1
	}
	// Twice as many chunks as runners: the atomic cursor load-balances
	// uneven chunk costs without affecting per-chunk determinism.
	nchunks := 2 * w
	if nchunks > n {
		nchunks = n
	}
	helpers := w - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
	d := dispatchRecords.Get().(*dispatch)
	d.body, d.n, d.nchunks = body, n, nchunks
	d.next.Store(0)
	d.chunks.Add(nchunks)
	// One reference for the caller and one per helper about to be offered;
	// the caller's own keeps the count above zero while offers that did
	// not land are handed back.
	d.refs.Store(int32(1 + helpers))
	// Offer helpers without blocking: a full channel means every worker is
	// busy (typically because this call is nested inside another parallel
	// region), and the caller simply runs its chunks inline.
offer:
	for h := 0; h < helpers; h++ {
		select {
		case pool.tasks <- d:
		default:
			d.refs.Add(int32(h - helpers))
			break offer
		}
	}
	d.runChunks()
	// Wait for chunks, never for helpers: one still queued behind a busy
	// worker finds the cursor exhausted whenever it runs, and waiting on it
	// would deadlock nested regions.
	d.chunks.Wait()
	panicked, p := d.panicked.Load(), d.panicVal
	d.release()
	if panicked {
		panic(p)
	}
}
