package detect

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"pelta/internal/tensor"
)

// refNeighbors is the independent O(n²)-style reference: every pairwise
// distance computed by its own loop, fully sorted with explicit (dist,
// index) ordering, then truncated — deliberately sharing no code with
// Neighbors beyond the distance definition.
func refNeighbors(vecs [][]float32, q []float32, k int) []Neighbor {
	type pair struct {
		i int
		d float64
	}
	var all []pair
	for i, v := range vecs {
		var dot float64
		for j := range v {
			dot += float64(q[j]) * float64(v[j])
		}
		d := 1 - dot
		all = append(all, pair{i: i, d: d})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].i < all[b].i
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]Neighbor, len(all))
	for i, p := range all {
		out[i] = Neighbor{Index: p.i, Dist: p.d}
	}
	return out
}

// TestNeighborsMatchesReference pins the brute-force index against the
// independent reference on random fingerprints, for several k, including
// exact-duplicate vectors that force distance ties.
func TestNeighborsMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(42)
	const n, dim = 60, 24
	vecs := make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		var norm float64
		for j := range v {
			v[j] = float32(rng.NormFloat64())
			norm += float64(v[j]) * float64(v[j])
		}
		inv := float32(1 / math.Sqrt(norm))
		for j := range v {
			v[j] *= inv
		}
		vecs[i] = v
	}
	// Duplicates at spread-out indices: their distances to any query tie
	// exactly, so ordering must fall back to insertion order.
	vecs[7] = vecs[3]
	vecs[41] = vecs[3]
	vecs[55] = vecs[12]

	for _, k := range []int{1, 2, 3, 7, n, n + 5} {
		for qi := 0; qi < 10; qi++ {
			q := vecs[qi*5]
			got := Neighbors(vecs, q, k)
			want := refNeighbors(vecs, q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d query %d:\n got %v\nwant %v", k, qi, got, want)
			}
		}
	}

	// Tie ordering explicitly: querying with the duplicated vector must
	// rank indices 3, 7, 41 in insertion order at distance 0.
	nn := Neighbors(vecs, vecs[3], 3)
	if nn[0].Index != 3 || nn[1].Index != 7 || nn[2].Index != 41 {
		t.Fatalf("tie ordering = %v, want indices 3,7,41", nn)
	}
	if KthDistance(vecs[:1], vecs[0], 2) != math.Inf(1) {
		t.Fatal("KthDistance below k vectors must be +Inf")
	}
}

// probeTensor builds a [3,16,16] sample from a base pattern plus a
// per-pixel perturbation amplitude, mimicking one ε-ball iterate.
func probeTensor(rng *tensor.RNG, base []float32, eps float32) *tensor.Tensor {
	x := tensor.New(3, 16, 16)
	d := x.Data()
	for i := range d {
		s := float32(1)
		if rng.Intn(2) == 0 {
			s = -1
		}
		d[i] = base[i] + s*eps
	}
	return x
}

func basePattern(rng *tensor.RNG) []float32 {
	base := make([]float32, 3*16*16)
	for i := range base {
		base[i] = 0.15 + 0.7*float32(rng.Float64())
	}
	return base
}

// TestFlagDecayBoundary pins flag decay on the injected clock: a flagged
// client stays flagged strictly inside the decay window and is unflagged
// exactly at the boundary, never early.
func TestFlagDecayBoundary(t *testing.T) {
	d := New(Config{K: 2, MatchM: 3, MatchW: 8, Decay: 30 * time.Second})
	rng := tensor.NewRNG(1)
	base := basePattern(rng)
	t0 := time.Unix(5000, 0)

	var last Decision
	var lastAt time.Time
	for i := 0; i < 8; i++ {
		lastAt = t0.Add(time.Duration(i) * 10 * time.Millisecond)
		last = d.Observe("c", probeTensor(rng, base, 0.01), lastAt)
	}
	if !last.Flagged {
		t.Fatal("a sustained near-duplicate stream must flag the client")
	}
	boundary := lastAt.Add(30 * time.Second)
	if !d.Flagged("c", boundary.Add(-time.Nanosecond)) {
		t.Fatal("client unflagged before the decay boundary")
	}
	if d.Flagged("c", boundary) {
		t.Fatal("client still flagged at the decay boundary")
	}
	if d.Flagged("c", boundary.Add(time.Nanosecond)) {
		t.Fatal("client still flagged past the decay boundary")
	}
}

// TestFingerprintTTLBoundary pins fingerprint expiry: entries are searched
// strictly inside TTL and dropped exactly at the TTL boundary — and a
// fully expired cache resets the m-of-w window, so a long-idle flagged
// client is not re-flagged by its first query back.
func TestFingerprintTTLBoundary(t *testing.T) {
	d := New(Config{K: 1, MatchM: 3, MatchW: 4, TTL: time.Minute, Decay: time.Second})
	rng := tensor.NewRNG(2)
	base := basePattern(rng)
	t0 := time.Unix(9000, 0)

	x := probeTensor(rng, base, 0.01)
	d.Observe("c", x.Clone(), t0)

	// Just inside TTL: the buffered fingerprint is still a neighbor.
	dec := d.Observe("c", x.Clone(), t0.Add(time.Minute-time.Nanosecond))
	if !dec.Hit {
		t.Fatalf("entry inside TTL must still match (dist %v)", dec.Dist)
	}

	// Rebuild a fresh detector and cross the boundary exactly: the entry
	// from t0 must be gone, so the same query has no neighbors at all.
	d2 := New(Config{K: 1, MatchM: 3, MatchW: 4, TTL: time.Minute, Decay: time.Second})
	d2.Observe("c", x.Clone(), t0)
	dec = d2.Observe("c", x.Clone(), t0.Add(time.Minute))
	if dec.Hit || !math.IsInf(dec.Dist, 1) {
		t.Fatalf("entry at the TTL boundary must be expired (hit=%v dist=%v)", dec.Hit, dec.Dist)
	}

	// Flag, idle past TTL, return: the stale hit bits must not re-flag.
	d3 := New(Config{K: 1, MatchM: 2, MatchW: 4, TTL: time.Minute, Decay: time.Second})
	at := t0
	var last Decision
	for i := 0; i < 4; i++ {
		at = t0.Add(time.Duration(i) * time.Millisecond)
		last = d3.Observe("c", x.Clone(), at)
	}
	if !last.Flagged {
		t.Fatal("setup: client must be flagged")
	}
	back := at.Add(2 * time.Minute)
	dec = d3.Observe("c", probeTensor(rng, base, 0.01), back)
	if dec.Flagged || dec.Hit {
		t.Fatalf("long-idle client re-flagged on return (flagged=%v hit=%v)", dec.Flagged, dec.Hit)
	}
}

// clientTrace is one client's deterministic query stream for the
// determinism property test.
func clientTrace(seed int64, n int) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	base := basePattern(rng)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		if seed%2 == 0 {
			// Probe-like: iterates around one base.
			out[i] = probeTensor(rng, base, 0.01)
		} else {
			// Benign-like: a fresh pattern every query.
			out[i] = probeTensor(rng, basePattern(rng), 0.01)
		}
	}
	return out
}

// runConcurrent replays 16 client traces from 16 goroutines (sequential
// within a client, racing across clients) and returns the final snapshot
// plus every per-client decision sequence.
func runConcurrent(t *testing.T, traces map[string][]*tensor.Tensor) ([]ClientSnapshot, map[string][]Decision) {
	t.Helper()
	d := New(Config{})
	t0 := time.Unix(7000, 0)
	decisions := make(map[string][]Decision, len(traces))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, trace := range traces {
		wg.Add(1)
		go func(name string, trace []*tensor.Tensor) {
			defer wg.Done()
			out := make([]Decision, len(trace))
			for i, x := range trace {
				// Fixed per-query timestamps: time is part of the replayed
				// trace, exactly as under the serving layer's fake clock.
				out[i] = d.Observe(name, x, t0.Add(time.Duration(i)*time.Millisecond))
			}
			mu.Lock()
			decisions[name] = out
			mu.Unlock()
		}(name, trace)
	}
	wg.Wait()
	return d.Snapshot(), decisions
}

// TestDetectorDeterministicAcrossRunsAndConcurrency is the bit-determinism
// property test: 16 concurrent clients (run under -race this is also the
// detector's data-race probe) replayed twice must produce deeply equal
// detector state — every buffered fingerprint bit — and identical
// per-client decision sequences, because decisions depend only on a
// client's own ordered history.
func TestDetectorDeterministicAcrossRunsAndConcurrency(t *testing.T) {
	traces := make(map[string][]*tensor.Tensor, 16)
	for c := 0; c < 16; c++ {
		traces[fmt.Sprintf("client-%02d", c)] = clientTrace(int64(c), 40)
	}
	snap1, dec1 := runConcurrent(t, traces)
	snap2, dec2 := runConcurrent(t, traces)
	if !reflect.DeepEqual(snap1, snap2) {
		t.Fatal("detector state differs between two identical runs")
	}
	if !reflect.DeepEqual(dec1, dec2) {
		t.Fatal("flag decisions differ between two identical runs")
	}
	flagged := 0
	for c := 0; c < 16; c += 2 {
		name := fmt.Sprintf("client-%02d", c)
		seq := dec1[name]
		if seq[len(seq)-1].Flagged {
			flagged++
		}
	}
	if flagged != 8 {
		t.Fatalf("%d of 8 probe-like clients flagged, want all 8", flagged)
	}
	for c := 1; c < 16; c += 2 {
		for i, dec := range dec1[fmt.Sprintf("client-%02d", c)] {
			if dec.Flagged {
				t.Fatalf("benign-like client %d flagged at query %d", c, i)
			}
		}
	}
}

// TestFingerprintInvariances pins the fingerprint contract: unit norm,
// brightness invariance, and worker-pool independence is moot because the
// pooling is plain sequential code — but shape handling must not panic on
// non-[C,H,W] inputs.
func TestFingerprintInvariances(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := probeTensor(rng, basePattern(rng), 0.01)
	fp := Fingerprint(x, 8)
	var norm float64
	for _, v := range fp {
		norm += float64(v) * float64(v)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Fatalf("fingerprint norm² = %v, want 1", norm)
	}
	// A global brightness offset must not move the fingerprint (beyond
	// float noise): centering removes it.
	bright := x.Clone()
	for i, v := range bright.Data() {
		bright.Data()[i] = v + 0.08
	}
	if d := Distance(fp, Fingerprint(bright, 8)); d > 1e-6 {
		t.Fatalf("brightness offset moved the fingerprint by %v", d)
	}
	if got := Fingerprint(tensor.New(7), 4); len(got) != 16 {
		t.Fatalf("flat input fingerprint has %d dims, want 16", len(got))
	}
}

// TestObserveAllocs pins the detector's per-query allocations once a
// client's ring is full: ObserveFingerprint searches into scratch the
// detector owns and sorts without a closure, so it allocates nothing, and
// Observe adds only Fingerprint's cell buffer and the fingerprint it hands
// over. Measured the same way at the parent commit the two cost 5 and 8:
// the vecs slice, the neighbor list and three in sort.Slice (the boxed
// slice, its swapper and the less closure), plus separate sum and cnt
// slices in Fingerprint.
func TestObserveAllocs(t *testing.T) {
	d := New(Config{})
	rng := tensor.NewRNG(5)
	base := basePattern(rng)
	xs := make([]*tensor.Tensor, 2*d.Config().Window)
	for i := range xs {
		xs[i] = probeTensor(rng, base, 0.03)
	}
	now := time.Unix(0, 0)
	for _, x := range xs {
		d.Observe("c", x, now)
	}
	fps := make([][]float32, len(xs))
	for i, x := range xs {
		fps[i] = Fingerprint(x, d.Config().Grid)
	}
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		d.ObserveFingerprint("c", fps[i%len(fps)], now)
		i++
	}); got != 0 {
		t.Errorf("ObserveFingerprint with a full ring: %.1f allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		d.Observe("c", xs[i%len(xs)], now)
		i++
	}); got > 2 {
		t.Errorf("Observe with a full ring: %.1f allocs, want ≤ 2", got)
	}
}
