package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingHook collects observed kernel ops; its clock advances 1µs per
// read so every observation has a positive duration.
type countingHook struct {
	ticks atomic.Int64
	mu    sync.Mutex
	ops   []KernelOp
	durs  []time.Duration
}

func (c *countingHook) install(t *testing.T) {
	t.Helper()
	SetKernelHook(&KernelHook{
		Now: func() time.Time { return time.Unix(0, c.ticks.Add(1000)) },
		Observe: func(op KernelOp, d time.Duration) {
			c.mu.Lock()
			c.ops = append(c.ops, op)
			c.durs = append(c.durs, d)
			c.mu.Unlock()
		},
	})
	t.Cleanup(func() { SetKernelHook(nil) })
}

func (c *countingHook) count(op KernelOp) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, o := range c.ops {
		if o == op {
			n++
		}
	}
	return n
}

// TestKernelHookObservesEntries pins that each kernel family reports
// exactly one observation per public entry, with positive durations.
func TestKernelHookObservesEntries(t *testing.T) {
	h := &countingHook{}
	h.install(t)

	a, b := New(4, 6), New(6, 5)
	a.Fill(0.5)
	b.Fill(0.25)
	matMul(a, b)
	if got := h.count(KernelMatMul); got != 1 {
		t.Fatalf("MatMul observed %d matmul spans, want 1", got)
	}

	x := New(2, 3, 8, 8)
	w := New(4, 3, 3, 3)
	x.Fill(0.1)
	w.Fill(0.2)
	conv2d(x, w, nil, 1, 1)
	if got := h.count(KernelConv); got != 1 {
		t.Fatalf("Conv2d observed %d conv spans, want 1", got)
	}
	// The conv's internal lowered products must NOT also count as matmul —
	// the hook reports kernel families at their public boundary only.
	if got := h.count(KernelMatMul); got != 1 {
		t.Fatalf("Conv2d leaked %d extra matmul spans (nested double count)", got-1)
	}

	G, T, dh := 2, 4, 3
	q, k, v, dst := New(G, T, dh), New(G, T, dh), New(G, T, dh), New(G, T, dh)
	q.Fill(0.3)
	k.Fill(0.2)
	v.Fill(0.1)
	FusedAttentionInto(nil, dst, q, k, v, 0.5)
	if got := h.count(KernelAttention); got != 1 {
		t.Fatalf("FusedAttentionInto observed %d attention spans, want 1", got)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, d := range h.durs {
		if d <= 0 {
			t.Fatalf("observation %d has non-positive duration %v", i, d)
		}
	}
}

// TestKernelHookBackwardEntries covers the backward-pass boundaries.
func TestKernelHookBackwardEntries(t *testing.T) {
	h := &countingHook{}
	h.install(t)

	x := New(2, 3, 8, 8)
	w := New(4, 3, 3, 3)
	x.Fill(0.1)
	w.Fill(0.2)
	gy := New(2, 4, 8, 8)
	gy.Fill(0.05)
	Conv2dBackwardInto(nil, New(x.Shape()...), New(w.Shape()...), New(4), x, w, gy, 1, 1)
	if got := h.count(KernelConv); got != 1 {
		t.Fatalf("Conv2dBackward observed %d conv spans, want 1", got)
	}
	if got := h.count(KernelMatMul); got != 0 {
		t.Fatalf("Conv2dBackward leaked %d matmul spans", got)
	}

	G, T, dh := 2, 4, 3
	q, k, v, gyA := New(G, T, dh), New(G, T, dh), New(G, T, dh), New(G, T, dh)
	gq, gk, gv := New(G, T, dh), New(G, T, dh), New(G, T, dh)
	q.Fill(0.3)
	k.Fill(0.2)
	v.Fill(0.1)
	gyA.Fill(0.4)
	FusedAttentionBackwardInto(nil, gq, gk, gv, q, k, v, gyA, 0.5)
	if got := h.count(KernelAttention); got != 1 {
		t.Fatalf("FusedAttentionBackwardInto observed %d attention spans, want 1", got)
	}
}

// TestKernelHookDisabledIsFree pins that without a hook the kernels never
// read a clock (SetKernelHook(nil) fully disarms).
func TestKernelHookDisabledIsFree(t *testing.T) {
	SetKernelHook(nil)
	a, b := New(2, 2), New(2, 2)
	a.Fill(1)
	b.Fill(1)
	matMul(a, b) // must not panic dereferencing a nil hook
}

// TestSetKernelHookRejectsPartial pins the half-installed-hook guard.
func TestSetKernelHookRejectsPartial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("partial hook (nil Observe) must panic")
		}
	}()
	SetKernelHook(&KernelHook{Now: time.Now})
}
