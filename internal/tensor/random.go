package tensor

import "math/rand"

// RNG wraps a deterministic random source for reproducible experiments.
// It is not safe for concurrent use; create one per goroutine.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a seeded generator.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Normal returns a tensor of N(mean, std²) samples.
func (g *RNG) Normal(mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(mean + std*g.r.NormFloat64())
	}
	return t
}

// Uniform returns a tensor of uniform samples in [lo, hi).
func (g *RNG) Uniform(lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(lo + (hi-lo)*g.r.Float64())
	}
	return t
}
