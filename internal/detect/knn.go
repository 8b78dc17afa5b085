package detect

import (
	"math"
	"sort"
)

// Distance returns the cosine distance 1 − a·b between two equal-length
// vectors. Fingerprints are L2-normalized, so it ranges [0,2] and ranks
// exactly as Euclidean distance does (‖a−b‖² = 2·(1 − a·b)). Accumulation
// is float64 in index order, so it is bit-deterministic.
func Distance(a, b []float32) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return 1 - dot
}

// Neighbor is one k-NN result: the index of the matched vector and its
// distance to the query.
type Neighbor struct {
	Index int
	Dist  float64
}

// Neighbors returns the k nearest vectors to q, sorted by distance
// ascending. Ties rank by lower index (insertion order in the detector's
// ring buffer), so results are fully deterministic even on duplicate
// fingerprints. Fewer than k vectors return them all.
func Neighbors(vecs [][]float32, q []float32, k int) []Neighbor {
	if k <= 0 || len(vecs) == 0 {
		return nil
	}
	out := make([]Neighbor, len(vecs))
	for i, v := range vecs {
		out[i] = Neighbor{Index: i, Dist: Distance(q, v)}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Index < out[b].Index
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// KthDistance returns the K-th-nearest-neighbor distance of q over vecs
// (1-based: k=1 is the nearest). With fewer than k vectors it returns
// +Inf — a query with no history can never look like a duplicate.
func KthDistance(vecs [][]float32, q []float32, k int) float64 {
	nn := Neighbors(vecs, q, k)
	if len(nn) < k {
		return math.Inf(1)
	}
	return nn[k-1].Dist
}
