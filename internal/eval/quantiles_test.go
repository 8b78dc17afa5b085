package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantileExactRanks(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	// Shuffle: Quantile must sort a copy, not require sorted input.
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })

	q := Quantiles(vals)
	// Linear interpolation between closest ranks on 1..100:
	// p50 at pos 49.5 → 50.5, p95 at 94.05 → 95.05, p99 at 98.01 → 99.01.
	for _, tt := range []struct{ got, want float64 }{
		{q.P50, 50.5}, {q.P95, 95.05}, {q.P99, 99.01},
	} {
		if math.Abs(tt.got-tt.want) > 1e-9 {
			t.Errorf("quantile = %v, want %v", tt.got, tt.want)
		}
	}
	// The input must be untouched (still shuffled).
	sortedPrefix := true
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			sortedPrefix = false
			break
		}
	}
	if sortedPrefix {
		t.Error("Quantiles sorted its input in place")
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single element: %v", got)
	}
	if got := Quantile([]float64{3, 1}, 0); got != 1 {
		t.Errorf("q=0 must be the min, got %v", got)
	}
	if got := Quantile([]float64{3, 1}, 1); got != 3 {
		t.Errorf("q=1 must be the max, got %v", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("even-length median = %v, want 1.5", got)
	}
}

// TestQuantileBoundedMonotone checks the order statistics properties on
// random data: every quantile lies within [min,max] and q↦Quantile(q) is
// non-decreasing.
func TestQuantileBoundedMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 257)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
		lo = math.Min(lo, vals[i])
		hi = math.Max(hi, vals[i])
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := Quantile(vals, q)
		if v < lo || v > hi {
			t.Fatalf("Quantile(%v) = %v outside [%v,%v]", q, v, lo, hi)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v (not monotone)", q, v, prev)
		}
		prev = v
	}
}

// TestQuantileMedian pins Quantile(·, 0.5) on the odd-length inputs the
// Table III/IV harness passes (1 or KernelDraws values): the middle element
// of the sorted input, exactly.
func TestQuantileMedian(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{1, 0, 1}, 1},
		{[]float64{0.5, 0.9, 0.1, 0.7, 0.3}, 0.5},
	}
	for _, tt := range tests {
		if got := Quantile(tt.in, 0.5); got != tt.want {
			t.Errorf("Quantile(%v, 0.5) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestQuantileMedianBoundedProperty checks that the median of three
// arbitrary finite values lies between their minimum and maximum, including
// spreads wider than math.MaxFloat64.
func TestQuantileMedianBoundedProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		m := Quantile([]float64{a, b, c}, 0.5)
		lo, hi := a, a
		for _, v := range []float64{b, c} {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
