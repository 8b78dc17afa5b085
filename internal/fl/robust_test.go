package fl

import (
	"errors"
	"math"
	"testing"
)

// wv builds a one-tensor Weights with the given values.
func wv(vals ...float32) Weights {
	return Weights{
		Names:  []string{"w"},
		Shapes: [][]int{{len(vals)}},
		Data:   [][]float32{vals},
	}
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func zeros(n int) []int { return make([]int, n) }

func TestNewAggregatorNames(t *testing.T) {
	for _, name := range AggregatorNames() {
		a, err := NewAggregator(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("NewAggregator(%q).Name() = %q", name, a.Name())
		}
	}
	if a, err := NewAggregator(""); err != nil || a.Name() != DefenseFedAvg {
		t.Fatalf("empty name must default to fedavg, got %v / %v", a, err)
	}
	if _, err := NewAggregator("launder"); err == nil {
		t.Fatal("unknown aggregator must fail")
	}
}

// TestFedAvgAggBitIdentical pins the baseline contract: the interface-boxed
// FedAvg must produce bit-identical weights to the raw functions on both
// the fresh and the stale path.
func TestFedAvgAggBitIdentical(t *testing.T) {
	updates := []Weights{wv(0.1, 0.7, -0.3), wv(0.5, -0.2, 0.9), wv(-0.4, 0.3, 0.2)}
	counts := []int{7, 13, 5}

	want, err := FedAvg(updates, counts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FedAvgAgg{}.Aggregate(Weights{}, updates, counts, zeros(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Data[0] {
		if got.Data[0][j] != want.Data[0][j] {
			t.Fatalf("fresh path not bit-identical at %d: %v vs %v", j, got.Data[0][j], want.Data[0][j])
		}
	}

	stale := []int{0, 1, 2}
	want, err = StalenessFedAvg(updates, counts, stale, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err = FedAvgAgg{}.Aggregate(Weights{}, updates, counts, stale, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Data[0] {
		if got.Data[0][j] != want.Data[0][j] {
			t.Fatalf("stale path not bit-identical at %d: %v vs %v", j, got.Data[0][j], want.Data[0][j])
		}
	}
}

// TestKrumExcludesOutlier: three clustered honest updates plus one far-away
// poisoned update — Krum must answer from the cluster only.
func TestKrumExcludesOutlier(t *testing.T) {
	updates := []Weights{wv(1.0, 1.0), wv(1.1, 0.9), wv(0.9, 1.1), wv(100, -100)}
	counts := ones(4)

	krum := &Krum{M: 1}
	got, err := krum.Aggregate(Weights{}, updates, counts, zeros(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Classic Krum returns one of the honest updates verbatim.
	if math.Abs(float64(got.Data[0][0])-1) > 0.2 || math.Abs(float64(got.Data[0][1])-1) > 0.2 {
		t.Fatalf("krum selected the outlier: %v", got.Data[0])
	}

	multi := &Krum{}
	got, err = multi.Aggregate(Weights{}, updates, counts, zeros(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-Krum averages the n-f = 3 honest updates: exactly (1, 1).
	if math.Abs(float64(got.Data[0][0])-1) > 1e-5 || math.Abs(float64(got.Data[0][1])-1) > 1e-5 {
		t.Fatalf("multikrum mean polluted by the outlier: %v", got.Data[0])
	}
}

// TestKrumDeterministicTieBreak: identical scores must select by index so
// seeded runs reproduce.
func TestKrumDeterministicTieBreak(t *testing.T) {
	updates := []Weights{wv(1), wv(1), wv(1), wv(1)}
	k := &Krum{M: 1}
	a, err := k.Aggregate(Weights{}, updates, ones(4), zeros(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Aggregate(Weights{}, updates, ones(4), zeros(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Data[0][0] != b.Data[0][0] {
		t.Fatal("tied krum selection not deterministic")
	}
}

// TestTrimmedMeanDropsExtremes: the poisoned coordinate is the max, so a
// 25% trim removes it per coordinate regardless of which client sent it.
func TestTrimmedMeanDropsExtremes(t *testing.T) {
	updates := []Weights{wv(1, -50), wv(2, 1), wv(3, 2), wv(50, 3)}
	tm := &TrimmedMean{Frac: 0.25}
	got, err := tm.Aggregate(Weights{}, updates, ones(4), zeros(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinate 0 trims {1, 50}, averages {2, 3} → 2.5; coordinate 1 trims
	// {-50, 3}, averages {1, 2} → 1.5.
	if math.Abs(float64(got.Data[0][0])-2.5) > 1e-6 || math.Abs(float64(got.Data[0][1])-1.5) > 1e-6 {
		t.Fatalf("trimmed mean = %v, want [2.5 1.5]", got.Data[0])
	}
}

// TestTrimmedMeanComposesWithStaleness: survivors keep their discounted
// weights, so a stale survivor counts less.
func TestTrimmedMeanComposesWithStaleness(t *testing.T) {
	updates := []Weights{wv(-100), wv(0), wv(4), wv(100)}
	tm := &TrimmedMean{Frac: 0.25}
	// Staleness 1 on the {4} survivor halves its weight at λ=1: mean of
	// {0 (w 1), 4 (w 0.5)} = 4/3 instead of 2.
	got, err := tm.Aggregate(Weights{}, updates, ones(4), []int{0, 0, 1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := float64(got.Data[0][0]); math.Abs(v-4.0/3) > 1e-5 {
		t.Fatalf("staleness-discounted trimmed mean = %v, want 4/3", v)
	}
}

func TestMedianMajorityWins(t *testing.T) {
	updates := []Weights{wv(1, 2), wv(1.2, 2.2), wv(0.8, 1.8), wv(1000, -1000), wv(-1000, 1000)}
	got, err := MedianAgg{}.Aggregate(Weights{}, updates, ones(5), zeros(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0][0] != 1 || got.Data[0][1] != 2 {
		t.Fatalf("median = %v, want [1 2]", got.Data[0])
	}
	// Even count: mean of the two middle values.
	got, err = MedianAgg{}.Aggregate(Weights{}, updates[:4], ones(4), zeros(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0][0] != 1.1 {
		t.Fatalf("even median = %v, want 1.1", got.Data[0][0])
	}
}

// TestNormClipBoundsBoostedUpdate: a 100×-boosted delta must contribute no
// more magnitude than the honest deltas after clipping.
func TestNormClipBoundsBoostedUpdate(t *testing.T) {
	prev := wv(0, 0)
	honest := []Weights{wv(1, 0), wv(0.9, 0.1), wv(1.1, -0.1)}
	boosted := wv(-100, 0) // model replacement pulling the opposite way
	updates := append(append([]Weights(nil), honest...), boosted)

	nc := &NormClip{} // adaptive τ = median delta norm ≈ 1
	got, err := nc.Aggregate(prev, updates, ones(4), zeros(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Unclipped FedAvg would land near -24; clipping bounds the poisoned
	// delta to ‖δ‖ ≈ 1, so the mean stays in honest territory.
	if v := float64(got.Data[0][0]); v < 0.4 || v > 1.2 {
		t.Fatalf("normclip mean = %v, want within honest range", v)
	}

	// A generous fixed τ admits everything unchanged.
	loose := &NormClip{Tau: 1e6}
	got, err = loose.Aggregate(prev, updates, ones(4), zeros(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FedAvg(updates, ones(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got.Data[0][0])-float64(want.Data[0][0])) > 1e-3 {
		t.Fatalf("loose normclip %v differs from FedAvg %v", got.Data[0][0], want.Data[0][0])
	}
}

// TestBufferedAggregatorAppliesRule: a BufferedAggregator with a robust
// Rule must route Drain through it.
func TestBufferedAggregatorAppliesRule(t *testing.T) {
	agg := NewBufferedAggregator(3, 2, 1)
	agg.Rule = MedianAgg{}
	agg.Offer(0, unitUpdate(1, 10), 0, 0)
	agg.Offer(1, unitUpdate(2, 10), 0, 0)
	agg.Offer(2, unitUpdate(1000, 10), 0, 0)
	w, merged, err := agg.Drain(0, wv(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 || w.Data[0][0] != 2 {
		t.Fatalf("median drain = %v (%d merged), want 2", w.Data, len(merged))
	}
}

// TestAggregateRejectsBadInput: every rule must refuse mismatched or
// invalid updates instead of corrupting the global model.
func TestAggregateRejectsBadInput(t *testing.T) {
	aggs := []Aggregator{FedAvgAgg{}, &Krum{M: 1}, &Krum{}, &TrimmedMean{}, MedianAgg{}, &NormClip{}}
	for _, a := range aggs {
		if _, err := a.Aggregate(Weights{}, nil, nil, nil, 0); err == nil {
			t.Fatalf("%s: empty updates must fail", a.Name())
		}
		if _, err := a.Aggregate(wv(0, 0), []Weights{wv(1, 2), wv(1)}, ones(2), zeros(2), 0); err == nil {
			t.Fatalf("%s: size mismatch must fail", a.Name())
		}
		if _, err := a.Aggregate(wv(0), []Weights{wv(1), wv(2)}, []int{1, 0}, zeros(2), 0); err == nil {
			t.Fatalf("%s: non-positive count must fail", a.Name())
		}
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			_, err := a.Aggregate(wv(0, 0), []Weights{wv(1, 2), wv(3, bad), wv(5, 6)}, ones(3), zeros(3), 0)
			if !errors.Is(err, errNonFinite) {
				t.Fatalf("%s: update carrying %v must fail with errNonFinite, got %v", a.Name(), bad, err)
			}
		}
	}
	if _, err := StalenessFedAvg([]Weights{wv(1), wv(float32(math.NaN()))}, ones(2), []int{0, 1}, 1); !errors.Is(err, errNonFinite) {
		t.Fatalf("StalenessFedAvg must refuse a NaN update, got %v", err)
	}
}
