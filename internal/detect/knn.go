package detect

import (
	"cmp"
	"math"
	"slices"
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
// fingerprints. Fewer than k vectors return them all. The result is a fresh
// slice; the detector itself searches into scratch it owns (nearest).
func Neighbors(vecs [][]float32, q []float32, k int) []Neighbor {
	if k <= 0 || len(vecs) == 0 {
		return nil
	}
	return nearest(make([]Neighbor, 0, len(vecs)), vecs, q, k)
}

// nearest is Neighbors written into dst's storage (k ≥ 1): every distance,
// a full sort in (Dist, Index) order, then the first k.
func nearest(dst []Neighbor, vecs [][]float32, q []float32, k int) []Neighbor {
	out := dst[:0]
	for i, v := range vecs {
		out = append(out, Neighbor{Index: i, Dist: Distance(q, v)})
	}
	slices.SortFunc(out, compareNeighbors)
	return out[:min(k, len(out))]
}

// compareNeighbors orders by distance, then by index. A top-level func, so
// sorting allocates neither a closure nor a swapper.
func compareNeighbors(a, b Neighbor) int {
	if a.Dist != b.Dist {
		if a.Dist < b.Dist {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Index, b.Index)
}

// KthDistance returns the K-th-nearest-neighbor distance of q over vecs
// (1-based: k=1 is the nearest). With fewer than k vectors it returns
// +Inf — a query with no history can never look like a duplicate.
func KthDistance(vecs [][]float32, q []float32, k int) float64 {
	return kth(Neighbors(vecs, q, k), k)
}

// kth reads the K-th distance off a sorted neighbor list, +Inf when it
// holds fewer than k.
func kth(nn []Neighbor, k int) float64 {
	if len(nn) < k {
		return math.Inf(1)
	}
	return nn[k-1].Dist
}
