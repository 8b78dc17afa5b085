package fl

import (
	"fmt"

	"pelta/internal/models"
)

// Weights is an ordered, serializable snapshot of model parameters — the
// only thing that ever leaves a device in FL (user data stays local).
type Weights struct {
	Names  []string
	Shapes [][]int
	Data   [][]float32
}

// Snapshot copies m's parameters into a Weights value. Every call copies
// into one fresh data slab and one fresh shape slab; each tensor is a
// full-slice-expression cut of them, so an append to one never reaches its
// neighbour, and no two snapshots share memory.
func Snapshot(m models.Model) Weights {
	params := m.Params()
	nData, nDims := 0, 0
	for _, p := range params {
		nData += p.Data.Len()
		nDims += p.Data.Rank()
	}
	data, dims := make([]float32, nData), make([]int, nDims)
	w := Weights{
		Names:  make([]string, len(params)),
		Shapes: make([][]int, len(params)),
		Data:   make([][]float32, len(params)),
	}
	for i, p := range params {
		w.Names[i] = p.Name
		n := copy(dims, p.Data.Shape())
		w.Shapes[i], dims = dims[:n:n], dims[n:]
		n = copy(data, p.Data.Data())
		w.Data[i], data = data[:n:n], data[n:]
	}
	return w
}

// Apply overwrites m's parameters with w. Names and shapes must match the
// model's parameter list exactly, and every value must be finite.
func Apply(m models.Model, w Weights) error {
	params := m.Params()
	if len(params) != len(w.Data) || len(w.Names) != len(w.Data) || len(w.Shapes) != len(w.Data) {
		return fmt.Errorf("fl: weight snapshot has %d names, %d shapes and %d tensors, model has %d params",
			len(w.Names), len(w.Shapes), len(w.Data), len(params))
	}
	if nonFinite(w) {
		return fmt.Errorf("fl: weight snapshot: %w", errNonFinite)
	}
	for i, p := range params {
		if p.Name != w.Names[i] {
			return fmt.Errorf("fl: weight %d is %q, model expects %q", i, w.Names[i], p.Name)
		}
		if len(w.Data[i]) != p.Data.Len() {
			return fmt.Errorf("fl: weight %q has %d values, model expects %d", p.Name, len(w.Data[i]), p.Data.Len())
		}
		copy(p.Data.Data(), w.Data[i])
	}
	return nil
}

// FedAvg computes the sample-count-weighted average of client updates — the
// aggregation rule of McMahan et al. used by the paper's FL scheme. Its
// per-update fraction is float32(count)/float32(total), a different
// rounding from weightedMean's float32(w/total); seeded runs are pinned to
// it, which is why the fresh path keeps its own loop.
func FedAvg(updates []Weights, counts []int) (Weights, error) {
	if err := validateUpdates(updates, counts, make([]int, len(updates))); err != nil {
		return Weights{}, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	out := emptyLike(updates[0])
	for u, upd := range updates {
		frac := float32(counts[u]) / float32(total)
		for i := range upd.Data {
			dst := out.Data[i]
			for j, v := range upd.Data[i] {
				dst[j] += frac * v
			}
		}
	}
	return out, nil
}
