package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pelta/internal/eval"
)

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0.5}, {30, 1 - 10.0/30}, {100, 0.9}, {200, 0.95}, {4000, 0.95}} {
		if got := tailQ(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule's point: at least ten samples lie beyond the quantile.
		if c.n > 20 && float64(c.n)*(1-tailQ(c.n)) < 10-1e-9 {
			t.Errorf("tailQ(%d) leaves fewer than ten samples beyond it", c.n)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

func TestReduceAgreesWithEvalQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var samples []opSample
	var ms []float64
	for i := 0; i < 2000; i++ {
		v := 4 + rng.ExpFloat64()
		at := time.Duration(i+1) * 5 * time.Millisecond
		samples = append(samples, opSample{start: at - time.Millisecond, at: at, ms: v, ops: 1})
		ms = append(ms, v)
	}
	edges := []time.Duration{0, 2 * time.Second, 4 * time.Second, 6 * time.Second, 8 * time.Second, 10 * time.Second}
	mallocs := []uint64{0, 400, 800, 1200, 1600, 2000}
	w := reduce(samples, edges, mallocs)
	q := eval.Quantiles(ms)
	if w.p50 != q.P50 || w.tail != q.P95 || w.tailQ != 0.95 {
		t.Fatalf("reduce p50 %v tail %v (q %v), eval %v %v", w.p50, w.tail, w.tailQ, q.P50, q.P95)
	}
	if math.Abs(w.opsPerS-200) > 0.5 || math.Abs(w.allocs-1) > 1e-9 {
		t.Fatalf("ops/s %v allocs/op %v, want 200 and 1", w.opsPerS, w.allocs)
	}
	if w.sOpsPerS > 0.01 || w.sAllocs > 0.01 {
		t.Fatalf("even windows reported spread %v %v", w.sOpsPerS, w.sAllocs)
	}
}

func TestReduceSplitsLongOperationsAcrossWindows(t *testing.T) {
	// Three 1.5 s rounds over two 2.25 s windows: each window did 1.5 of them.
	var samples []opSample
	for i := 0; i < 3; i++ {
		samples = append(samples, opSample{start: time.Duration(i) * 1500 * time.Millisecond, at: time.Duration(i+1) * 1500 * time.Millisecond, ms: 1500, ops: 1})
	}
	w := reduce(samples, []time.Duration{0, 2250 * time.Millisecond, 4500 * time.Millisecond}, []uint64{0, 15, 30})
	if math.Abs(w.opsPerS-1/1.5) > 1e-9 || w.sOpsPerS > 1e-9 {
		t.Fatalf("ops/s %v spread %v, want %v and 0", w.opsPerS, w.sOpsPerS, 1/1.5)
	}
}
