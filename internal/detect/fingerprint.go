package detect

import (
	"math"

	"pelta/internal/tensor"
)

// DefaultGrid is the fingerprint pooling grid used when Config.Grid is
// unset: 8×8 cells per channel keeps enough spatial detail to separate
// same-class dataset noise from ε-ball attack iterates while downsampling
// high-resolution inputs ~16× per side.
const DefaultGrid = 8

// Fingerprint condenses a query sample into its similarity signature: each
// channel is average-pooled onto a grid×grid cell grid, the pooled vector
// is mean-centered, then L2-normalized. Pooling averages out per-pixel
// dataset noise (i.i.d. across two benign samples) while an attack
// iterate's structured ε-ball perturbation survives, which is exactly the
// contrast the detector thresholds; centering removes global brightness
// offsets so a dark and a bright draw of one scene are no nearer than any
// other pair.
//
// x is a [C,H,W] sample; any other rank is treated as a single flat
// channel row. The result has C·grid·grid entries (cells an undersized
// image never touches stay zero and are excluded from the centering mean).
// The computation is sequential float64 accumulation in index order —
// bit-identical regardless of kernel worker pools.
func Fingerprint(x *tensor.Tensor, grid int) []float32 {
	if grid <= 0 {
		grid = DefaultGrid
	}
	c, h, w := 1, 1, x.Len()
	if x.Rank() == 3 {
		c, h, w = x.Dim(0), x.Dim(1), x.Dim(2)
	}
	// sum and cnt share one allocation; a float64 count is exact, so the
	// means are the same bits an int count gives.
	cells := c * grid * grid
	buf := make([]float64, 2*cells)
	sum, cnt := buf[:cells], buf[cells:]
	data := x.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		cbase := ch * grid * grid
		for y := 0; y < h; y++ {
			by := y * grid / h
			row := base + y*w
			brow := cbase + by*grid
			for xx := 0; xx < w; xx++ {
				cell := brow + xx*grid/w
				sum[cell] += float64(data[row+xx])
				cnt[cell]++
			}
		}
	}
	var mean float64
	filled := 0
	for i, n := range cnt {
		if n > 0 {
			sum[i] /= n
			mean += sum[i]
			filled++
		}
	}
	if filled > 0 {
		mean /= float64(filled)
	}
	var norm float64
	for i, n := range cnt {
		if n > 0 {
			sum[i] -= mean
			norm += sum[i] * sum[i]
		}
	}
	fp := make([]float32, len(sum))
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range sum {
			fp[i] = float32(sum[i] * inv)
		}
	}
	return fp
}
