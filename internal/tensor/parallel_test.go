package tensor

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs f with the kernel worker override pinned to n, restoring
// the previous override afterwards.
func withWorkers(n int, f func()) {
	prev := SetKernelWorkers(n)
	defer SetKernelWorkers(prev)
	f()
}

// bitEqual reports whether two float32 buffers are identical bit patterns
// (NaNs compare by payload, ±0 are distinguished).
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestKernelWorkersSerialPath is the PELTA_KERNEL_WORKERS=1 regression: with
// the override pinned to 1, parallelFor must degrade to exactly one inline
// body call covering the whole range — the single-threaded path, not a
// 1-worker sharding of it.
func TestKernelWorkersSerialPath(t *testing.T) {
	withWorkers(1, func() {
		if KernelWorkers() != 1 {
			t.Fatalf("KernelWorkers() = %d, want 1", KernelWorkers())
		}
		var calls [][2]int
		parallelFor(1024, 1<<22, func(lo, hi int) {
			calls = append(calls, [2]int{lo, hi})
		})
		if len(calls) != 1 || calls[0] != [2]int{0, 1024} {
			t.Fatalf("worker override 1 sharded the range: calls = %v", calls)
		}
	})
	if prev := SetKernelWorkers(6); prev != 0 {
		t.Fatalf("override not restored: %d", prev)
	}
	if KernelWorkers() != 6 {
		t.Fatalf("KernelWorkers() = %d, want pinned 6", KernelWorkers())
	}
	SetKernelWorkers(0)
}

// TestParallelForCoversRange checks the sharded path partitions [0,n)
// exactly once per index for worker counts that exceed the chunk count and
// for n smaller than the would-be chunk count.
func TestParallelForCoversRange(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{4, 1024}, {16, 5}, {3, 7}, {8, 999}} {
		withWorkers(tc.workers, func() {
			var mu sync.Mutex
			seen := make([]int, tc.n)
			parallelFor(tc.n, 1<<22, func(lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", tc.workers, tc.n, i, c)
				}
			}
		})
	}
}

// TestMatMulBitIdentityAcrossWorkers pins the tiled matmul (and the transA /
// transB variants) to exact bit equality between the single-threaded path
// and a sharded run. Odd dimensions exercise every tail path of the
// blocked kernels.
func TestMatMulBitIdentityAcrossWorkers(t *testing.T) {
	rng := NewRNG(101)
	// k and n straddle the matmulKC/matmulNC tile sizes so the packed-panel
	// path engages; m*k*n clears parallelThreshold.
	a := rng.Uniform(-1, 1, 67, 193)
	b := rng.Uniform(-1, 1, 193, 301)
	at := rng.Uniform(-1, 1, 193, 67)  // [k,m] for transA
	bt := rng.Uniform(-1, 1, 301, 193) // [n,k] for transB
	var serialMM, serialTB, serialTA *Tensor
	withWorkers(1, func() {
		serialMM = matMul(a, b)
		serialTB = matMulTransposedB(a, bt)
		serialTA = matMulTransposedA(at, b)
	})
	for _, w := range []int{2, 5, 8} {
		withWorkers(w, func() {
			if got := matMul(a, b); !bitEqual(got.Data(), serialMM.Data()) {
				t.Fatalf("workers=%d: MatMul bits diverge from single-threaded", w)
			}
			if got := matMulTransposedB(a, bt); !bitEqual(got.Data(), serialTB.Data()) {
				t.Fatalf("workers=%d: MatMulTransB bits diverge", w)
			}
			if got := matMulTransposedA(at, b); !bitEqual(got.Data(), serialTA.Data()) {
				t.Fatalf("workers=%d: MatMulTransA bits diverge", w)
			}
		})
	}
}

// TestConvBitIdentityAcrossWorkers pins parallel convolution forward and
// backward (gx, gw and gb) to the single-threaded bits.
func TestConvBitIdentityAcrossWorkers(t *testing.T) {
	rng := NewRNG(202)
	x := rng.Uniform(-1, 1, 5, 3, 13, 13)
	w := rng.Uniform(-1, 1, 7, 3, 3, 3)
	bias := rng.Uniform(-1, 1, 7)
	oh, ow := ConvOut(13, 3, 2, 1), ConvOut(13, 3, 2, 1)
	gy := rng.Uniform(-1, 1, 5, 7, oh, ow)

	run := func() (y, gx, gw, gb *Tensor) {
		p := NewPool()
		y = New(5, 7, oh, ow)
		Conv2dInto(p, y, x, w, bias, 2, 1)
		gx, gw, gb = New(x.Shape()...), New(w.Shape()...), New(7)
		Conv2dBackwardInto(p, gx, gw, gb, x, w, gy, 2, 1)
		return
	}
	var sy, sgx, sgw, sgb *Tensor
	withWorkers(1, func() { sy, sgx, sgw, sgb = run() })
	for _, workers := range []int{2, 8} {
		withWorkers(workers, func() {
			y, gx, gw, gb := run()
			if !bitEqual(y.Data(), sy.Data()) {
				t.Fatalf("workers=%d: conv forward bits diverge", workers)
			}
			if !bitEqual(gx.Data(), sgx.Data()) {
				t.Fatalf("workers=%d: conv gx bits diverge", workers)
			}
			if !bitEqual(gw.Data(), sgw.Data()) {
				t.Fatalf("workers=%d: conv gw bits diverge", workers)
			}
			if !bitEqual(gb.Data(), sgb.Data()) {
				t.Fatalf("workers=%d: conv gb bits diverge", workers)
			}
		})
	}
}

// TestConvTransposeBitIdentityAcrossWorkers pins the pooled transposed
// convolution to the single-threaded bits.
func TestConvTransposeBitIdentityAcrossWorkers(t *testing.T) {
	rng := NewRNG(303)
	x := rng.Uniform(-1, 1, 4, 6, 9, 9)
	w := rng.Uniform(-1, 1, 6, 3, 4, 4)
	var serial *Tensor
	withWorkers(1, func() { serial = convTranspose2d(x, w, 3, 0) })
	withWorkers(8, func() {
		p := NewPool()
		got := New(serial.Shape()...)
		ConvTranspose2dInto(p, got, x, w, 3, 0)
		if !bitEqual(got.Data(), serial.Data()) {
			t.Fatal("workers=8: ConvTranspose2dInto bits diverge from single-threaded")
		}
	})
}

// TestFusedAttentionBitIdentityAcrossWorkers pins the fused attention
// forward and backward to the single-threaded bits. T=65 (ViT token count)
// exercises the odd tail strip.
func TestFusedAttentionBitIdentityAcrossWorkers(t *testing.T) {
	rng := NewRNG(404)
	const G, T, dh = 12, 65, 16
	q := rng.Uniform(-1, 1, G, T, dh)
	k := rng.Uniform(-1, 1, G, T, dh)
	v := rng.Uniform(-1, 1, G, T, dh)
	gy := rng.Uniform(-1, 1, G, T, dh)
	scale := float32(1 / math.Sqrt(float64(dh)))

	run := func() (y, gq, gk, gv *Tensor) {
		p := NewPool()
		y = New(G, T, dh)
		FusedAttentionInto(p, y, q, k, v, scale)
		gq, gk, gv = New(G, T, dh), New(G, T, dh), New(G, T, dh)
		FusedAttentionBackwardInto(p, gq, gk, gv, q, k, v, gy, scale)
		return
	}
	var sy, sgq, sgk, sgv *Tensor
	withWorkers(1, func() { sy, sgq, sgk, sgv = run() })
	for _, workers := range []int{3, 8} {
		withWorkers(workers, func() {
			y, gq, gk, gv := run()
			if !bitEqual(y.Data(), sy.Data()) {
				t.Fatalf("workers=%d: fused attention forward bits diverge", workers)
			}
			if !bitEqual(gq.Data(), sgq.Data()) {
				t.Fatalf("workers=%d: fused attention gq bits diverge", workers)
			}
			if !bitEqual(gk.Data(), sgk.Data()) {
				t.Fatalf("workers=%d: fused attention gk bits diverge", workers)
			}
			if !bitEqual(gv.Data(), sgv.Data()) {
				t.Fatalf("workers=%d: fused attention gv bits diverge", workers)
			}
		})
	}
}

// TestFusedAttentionMatchesMaterializingChain pins the fused kernel to the
// unfused BMM → Scale → SoftmaxRows → BMM composition bit-for-bit — the
// property that lets nn.MultiHeadSelfAttention switch paths freely.
func TestFusedAttentionMatchesMaterializingChain(t *testing.T) {
	rng := NewRNG(505)
	const G, T, dh = 6, 33, 8
	q := rng.Uniform(-1, 1, G, T, dh)
	k := rng.Uniform(-1, 1, G, T, dh)
	v := rng.Uniform(-1, 1, G, T, dh)
	scale := float32(1 / math.Sqrt(float64(dh)))

	fused := New(G, T, dh)
	FusedAttentionInto(nil, fused, q, k, v, scale)

	// Materializing reference: kᵀ per slice, scores, scale, softmax, @v.
	kT := New(G, dh, T)
	for g := 0; g < G; g++ {
		transposeScatterBias(kT.Data()[g*T*dh:(g+1)*T*dh], k.Data()[g*T*dh:(g+1)*T*dh], nil, dh, T)
	}
	scores := New(G, T, T)
	BMMInto(scores, q, kT)
	ScaleInto(scores, scores, scale)
	SoftmaxRowsInto(scores, scores)
	ref := New(G, T, dh)
	BMMInto(ref, scores, v)

	if !bitEqual(fused.Data(), ref.Data()) {
		t.Fatal("fused attention bits diverge from the materializing chain")
	}
}

// TestWorkerPoolConcurrentCallers hammers the shared pool from many
// concurrent callers (as serving replicas and FL clients are), each running
// nested parallel kernels, and checks every caller still gets bit-exact
// results. Run under -race this doubles as the data-race probe for the
// caller-runs scheduler.
func TestWorkerPoolConcurrentCallers(t *testing.T) {
	rng := NewRNG(606)
	a := rng.Uniform(-1, 1, 96, 160)
	b := rng.Uniform(-1, 1, 160, 224)
	x := rng.Uniform(-1, 1, 4, 3, 11, 11)
	w := rng.Uniform(-1, 1, 5, 3, 3, 3)
	var wantMM, wantConv *Tensor
	withWorkers(1, func() {
		wantMM = matMul(a, b)
		wantConv = conv2d(x, w, nil, 1, 1)
	})

	withWorkers(8, func() {
		const callers = 8
		errs := make(chan string, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := NewPool()
				dst := New(96, 224)
				conv := New(wantConv.Shape()...)
				for it := 0; it < 20; it++ {
					MatMulInto(dst, a, b)
					if !bitEqual(dst.Data(), wantMM.Data()) {
						errs <- "matmul bits diverged under concurrency"
						return
					}
					Conv2dInto(p, conv, x, w, nil, 1, 1)
					if !bitEqual(conv.Data(), wantConv.Data()) {
						errs <- "conv bits diverged under concurrency"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	})
}

// goid returns the calling goroutine's id, parsed from the "goroutine N"
// header of its stack trace; the panic tests use it to tell the caller of
// parallelFor from a pool helper.
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		panic("goid: unexpected stack header " + f[0] + " " + f[1])
	}
	return id
}

// catchPanic runs f and returns the value it panicked with, or nil.
func catchPanic(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// checkMatMulServes runs the tiled matmul at the current worker count and
// fails t unless it matches the single-threaded bits — the pool still
// serves after whatever the test did to it.
func checkMatMulServes(t *testing.T) {
	t.Helper()
	rng := NewRNG(707)
	a := rng.Uniform(-1, 1, 67, 193)
	b := rng.Uniform(-1, 1, 193, 301)
	got := matMul(a, b)
	var want *Tensor
	withWorkers(1, func() { want = matMul(a, b) })
	if !bitEqual(got.Data(), want.Data()) {
		t.Fatalf("workers=%d: matmul bits diverge after a panicking dispatch", KernelWorkers())
	}
}

// TestParallelForPanicReachesCaller: a panic in chunk k — the first, a
// middle or the last — raised on the calling goroutine or on a pool helper
// reaches the caller of parallelFor with its original value, and the pool
// keeps serving bit-exact kernels afterwards. At one worker there is one
// chunk and no helper. Which goroutine claims a chunk is up to the
// scheduler, so each row repeats the dispatch until its chunk ran on the
// wanted side, slowing the other side's chunks to tilt the odds; the
// helper never gets chunk 0, which the caller claims right after offering.
func TestParallelForPanicReachesCaller(t *testing.T) {
	type boom struct {
		workers, chunk int
		onHelper       bool
	}
	const n = 64
	for _, workers := range []int{1, 2, 8} {
		nchunks := 2 * workers // the pool has at least minPoolWorkers helpers
		if workers == 1 {
			nchunks = 1
		}
		rows := []boom{{workers, 0, false}}
		if workers > 1 {
			mid, last := nchunks/2, nchunks-1
			rows = append(rows, boom{workers, mid, false}, boom{workers, last, false},
				boom{workers, mid, true}, boom{workers, last, true})
		}
		withWorkers(workers, func() {
			for _, want := range rows {
				raised := false
				for attempt := 0; attempt < 500 && !raised; attempt++ {
					caller := goid()
					var hit atomic.Bool
					got := catchPanic(func() {
						parallelFor(n, 1<<20, func(lo, hi int) {
							onHelper := goid() != caller
							if onHelper == want.onHelper && lo*nchunks/n == want.chunk {
								hit.Store(true)
								panic(want)
							}
							if onHelper != want.onHelper {
								time.Sleep(50 * time.Microsecond)
							}
						})
					})
					raised = hit.Load()
					if raised && got != want {
						t.Fatalf("%+v: caller recovered %v, want the original value", want, got)
					}
					if !raised && got != nil {
						t.Fatalf("%+v: caller recovered %v from a dispatch that raised nothing", want, got)
					}
				}
				if !raised {
					t.Fatalf("%+v: the chunk never ran on the wanted goroutine in 500 dispatches", want)
				}
			}
			checkMatMulServes(t)
		})
	}
}

// TestParallelForCallerPanicWaitsForChunks: when the caller's own chunk
// panics, the panic leaves parallelFor only after every other chunk has
// stopped. A helper still inside its chunk would otherwise keep writing
// into buffers that the caller's recovery path reuses (a served batch's
// arena). The caller's chunk panics only once the helper's has started.
func TestParallelForCallerPanicWaitsForChunks(t *testing.T) {
	withWorkers(2, func() {
		for attempt, raised := 0, false; !raised; attempt++ {
			if attempt == 100 {
				t.Fatal("the sibling chunk never ran on a helper in 100 dispatches")
			}
			caller := goid()
			var siblingDone atomic.Bool
			started := make(chan struct{}, 2)
			got := catchPanic(func() {
				parallelFor(2, 1<<20, func(lo, hi int) {
					if goid() != caller {
						started <- struct{}{}
						time.Sleep(20 * time.Millisecond)
						siblingDone.Store(true)
						return
					}
					select {
					case <-started:
						raised = true
						panic("caller chunk")
					case <-time.After(50 * time.Millisecond):
					}
				})
			})
			if raised && got != "caller chunk" {
				t.Fatalf("caller recovered %v, want its own chunk's panic", got)
			}
			if raised && !siblingDone.Load() {
				t.Fatal("the caller's panic surfaced while a helper was still inside its chunk")
			}
		}
		checkMatMulServes(t)
	})
}

// TestParallelForAllocs pins the dispatch itself at zero allocations: the
// dispatch record comes from a free list and carries the cursor, the chunk
// count and the parked panic, so only a caller's body closure (built once
// here) can allocate.
func TestParallelForAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	out := make([]float32, 256)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float32(i)
		}
	}
	for _, workers := range []int{2, 8} {
		withWorkers(workers, func() {
			dispatch := func() { parallelFor(len(out), 1<<20, body) }
			dispatch() // start the pool
			if got := testing.AllocsPerRun(200, dispatch); got != 0 {
				t.Errorf("workers=%d: %.1f allocs per parallelFor, want 0", workers, got)
			}
		})
	}
}

// TestWorkerPoolRecyclesUnderNestingAndPanics drives the free list of
// dispatch records hard: concurrent callers whose outer chunks each run a
// nested parallelFor, with one outer region in three panicking in a single
// inner chunk. The workers are saturated, so helpers are routinely dequeued
// after their caller has returned; each must find its own exhausted region
// and never a record already handed to another caller. Every caller checks
// that it gets back exactly its own panic value, and otherwise a fully
// written result. Under -race this is the probe for the reference count
// that decides who recycles a record.
func TestWorkerPoolRecyclesUnderNestingAndPanics(t *testing.T) {
	type boom struct{ caller, iter int }
	const callers, iters, outer, inner = 6, 150, 16, 8
	withWorkers(8, func() {
		errs := make(chan string, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				out := make([]int, outer*inner)
				for it := 0; it < iters; it++ {
					clear(out)
					want := boom{c, it}
					panicking := it%3 == c%3
					got := catchPanic(func() {
						parallelFor(outer, 1<<20, func(lo, hi int) {
							for o := lo; o < hi; o++ {
								row := out[o*inner : (o+1)*inner]
								parallelFor(inner, 1<<20, func(l, h int) {
									for i := l; i < h; i++ {
										if panicking && o == it%outer && i == it%inner {
											panic(want)
										}
										row[i] = o*inner + i + it
									}
								})
							}
						})
					})
					if panicking {
						if got != want {
							errs <- "a caller recovered the wrong panic value"
							return
						}
						continue
					}
					if got != nil {
						errs <- "a caller recovered a panic it never raised"
						return
					}
					for j, v := range out {
						if v != j+it {
							errs <- "a nested region left its result unwritten"
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		checkMatMulServes(t)
	})
}
