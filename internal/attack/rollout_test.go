package attack

import (
	"hash/fnv"
	"math"
	"testing"

	"pelta/internal/tensor"
)

// rolloutMaps builds seeded per-block attention probabilities
// [B*heads, T, T] (rows on the simplex, as softmax emits them).
func rolloutMaps(layers, b, heads, t int) []*tensor.Tensor {
	rng := tensor.NewRNG(21)
	maps := make([]*tensor.Tensor, layers)
	for l := range maps {
		maps[l] = rng.Normal(0, 1, b*heads, t, t)
		tensor.SoftmaxRowsInto(maps[l], maps[l])
	}
	return maps
}

// TestRolloutFromMapsGoldenAndAllocs pins the rollout bits to the hash taken
// when every layer product still allocated its own [T,T] result, and checks
// that the layer loop now allocates nothing: tripling the block count must
// not change the allocation count.
func TestRolloutFromMapsGoldenAndAllocs(t *testing.T) {
	const b, heads, tokens = 3, 2, 17 // 4x4 patch grid + class token
	dst := tensor.New(b, 3, 8, 8)
	if err := RolloutFromMaps(rolloutMaps(4, b, heads, tokens), heads, dst); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, v := range dst.Data() {
		bits := math.Float32bits(v)
		h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
	}
	if got, want := h.Sum64(), uint64(6507294471774757677); got != want {
		t.Errorf("rollout hash %d, want %d", got, want)
	}

	allocs := func(layers int) float64 {
		maps := rolloutMaps(layers, b, heads, tokens)
		return testing.AllocsPerRun(10, func() {
			if err := RolloutFromMaps(maps, heads, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(2), allocs(6); few != many {
		t.Errorf("allocations grow with the block count: %v for 2 blocks, %v for 6", few, many)
	}
}
