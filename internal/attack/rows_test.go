package attack

import (
	"math"
	"testing"

	"pelta/internal/models"
	"pelta/internal/tensor"
)

// rowQuery is one oracle query reduced to its batch-major outputs: tensors
// whose first dimension is the batch, and per-sample values (nil when the
// query has none). Outputs are cloned, since the oracle overwrites its
// buffers on the next query.
type rowQuery struct {
	name    string
	vitOnly bool
	run     func(o *ClearOracle, x, x0 *tensor.Tensor, y []int) ([]*tensor.Tensor, []float64, error)
}

var rowQueries = []rowQuery{
	{name: "Logits", run: func(o *ClearOracle, x, _ *tensor.Tensor, _ []int) ([]*tensor.Tensor, []float64, error) {
		l, err := o.Logits(x)
		if err != nil {
			return nil, nil, err
		}
		return []*tensor.Tensor{l.Clone()}, nil, nil
	}},
	{name: "GradCE", run: func(o *ClearOracle, x, _ *tensor.Tensor, y []int) ([]*tensor.Tensor, []float64, error) {
		g, per, err := o.GradCE(x, y)
		if err != nil {
			return nil, nil, err
		}
		return []*tensor.Tensor{g.Clone()}, append([]float64(nil), per...), nil
	}},
	{name: "GradCERollout", vitOnly: true, run: func(o *ClearOracle, x, _ *tensor.Tensor, y []int) ([]*tensor.Tensor, []float64, error) {
		g, r, per, err := o.GradCERollout(x, y)
		if err != nil {
			return nil, nil, err
		}
		return []*tensor.Tensor{g.Clone(), r.Clone()}, append([]float64(nil), per...), nil
	}},
	// The C&W objective is a batch sum, so only its gradient is per-row.
	{name: "GradCW", vitOnly: true, run: func(o *ClearOracle, x, x0 *tensor.Tensor, y []int) ([]*tensor.Tensor, []float64, error) {
		g, _, err := o.GradCW(x, y, x0, 0.5, 0.1)
		if err != nil {
			return nil, nil, err
		}
		return []*tensor.Tensor{g.Clone()}, nil, nil
	}},
}

// sameBits reports whether a and b hold bit-identical elements.
func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestClearOracleRowsIndependentOfBatch pins the property that lets one
// oracle answer a whole attack batch while the kernel pool shards it:
// inference-mode networks couple nothing across the batch dimension, so rows
// [lo,hi) queried alone get exactly the bits those rows get inside the full
// batch, at one kernel worker and at several. Serving's micro-batching
// relies on the same property: a line's logits must not depend on its
// batch-mates.
func TestClearOracleRowsIndependentOfBatch(t *testing.T) {
	rng := tensor.NewRNG(8)
	defenders := []models.Model{
		models.NewViT(models.SmallViT("rows-vit", 5, 16, 4), rng),
		models.NewBiT(models.SmallBiT("rows-bit", 5, 16), rng),
		models.NewResNet(models.SmallResNet("rows-resnet", 5, 16), rng),
	}
	x := tensor.NewRNG(9).Uniform(0, 1, 6, 3, 16, 16)
	x0 := tensor.NewRNG(10).Uniform(0, 1, 6, 3, 16, 16)
	y := []int{0, 1, 2, 3, 4, 0}
	splits := [][2]int{{0, 2}, {2, 5}, {5, 6}}

	for _, workers := range []int{1, 4} {
		restore := tensor.SetKernelWorkers(workers)
		for _, m := range defenders {
			_, isViT := m.(*models.ViT)
			o := NewClearOracle(m)
			for _, q := range rowQueries {
				if q.vitOnly && !isViT {
					continue
				}
				full, fullPer, err := q.run(o, x, x0, y)
				if err != nil {
					t.Fatalf("%s %s, %d workers: full batch: %v", m.Name(), q.name, workers, err)
				}
				for _, s := range splits {
					lo, hi := s[0], s[1]
					part, partPer, err := q.run(o, x.SliceRange(lo, hi), x0.SliceRange(lo, hi), y[lo:hi])
					if err != nil {
						t.Fatalf("%s %s, %d workers, rows [%d,%d): %v", m.Name(), q.name, workers, lo, hi, err)
					}
					for i := range full {
						if !sameBits(part[i], full[i].SliceRange(lo, hi)) {
							t.Errorf("%s %s output %d, %d workers: rows [%d,%d) alone differ from the full batch",
								m.Name(), q.name, i, workers, lo, hi)
						}
					}
					for i, v := range partPer {
						if math.Float64bits(v) != math.Float64bits(fullPer[lo+i]) {
							t.Errorf("%s %s, %d workers: per-sample value %d alone = %v, in the full batch %v",
								m.Name(), q.name, workers, lo+i, v, fullPer[lo+i])
						}
					}
				}
			}
		}
		tensor.SetKernelWorkers(restore)
	}
}
