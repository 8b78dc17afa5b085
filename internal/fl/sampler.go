package fl

import (
	"sort"

	"pelta/internal/tensor"
)

// Sampler chooses which clients participate in each federation round —
// production FL servers never wait for the full fleet. Implementations must
// be deterministic functions of (round, n) and their own configuration so a
// seeded simulation replays bit-identically.
type Sampler interface {
	// Sample returns the ascending, duplicate-free client indices drawn
	// for round r (1-based) out of n clients. It must never be empty.
	Sample(r, n int) []int
}

// FullSampler selects every client every round — the synchronous FedAvg
// regime of the paper's Fig. 1 and the setting under which the engine's
// deterministic mode reproduces a sequential reference loop bit-identically
// (Workers 1 is that loop; any other worker count gives the same bits).
type FullSampler struct{}

// Sample implements Sampler.
func (FullSampler) Sample(r, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// UniformSampler draws K distinct clients uniformly per round. The draw is
// a pure function of (Seed, round), independent of call order, so a sweep
// that re-runs round 7 sees the same cohort.
type UniformSampler struct {
	K    int
	Seed int64
}

// Sample implements Sampler.
func (s UniformSampler) Sample(r, n int) []int {
	k := s.K
	if k <= 0 || k > n {
		k = n
	}
	rng := tensor.NewRNG(s.Seed + int64(r)*1_000_003)
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}
