package tensor

import (
	"fmt"
	"math"
)

// AddIn accumulates src into dst in place.
func AddIn(dst, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: AddIn size mismatch %v vs %v", dst.shape, src.shape))
	}
	for i := range dst.data {
		dst.data[i] += src.data[i]
	}
}

// AddScaledIn performs dst += alpha*src in place (axpy).
func AddScaledIn(dst *Tensor, alpha float32, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: AddScaledIn size mismatch %v vs %v", dst.shape, src.shape))
	}
	for i := range dst.data {
		dst.data[i] += alpha * src.data[i]
	}
}

// ScaleIn multiplies a by alpha in place.
func ScaleIn(a *Tensor, alpha float32) {
	for i := range a.data {
		a.data[i] *= alpha
	}
}

// Sub returns a - b elementwise in a fresh tensor. It is an allocating
// convenience for cold reporting code; kernels use SubInto.
func Sub(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	SubInto(out, a, b)
	return out
}

// Abs returns |a| elementwise in a fresh tensor (cold reporting code only).
func Abs(a *Tensor) *Tensor {
	out := New(a.shape...)
	ApplyInto(out, a, func(v float32) float32 {
		if v < 0 {
			return -v
		}
		return v
	})
	return out
}

// ClampIn clips every element into [lo, hi] in place.
func ClampIn(a *Tensor, lo, hi float32) {
	ApplyInto(a, a, func(v float32) float32 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Sum returns the sum of all elements in float64 for accuracy.
func Sum(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float64 {
	if len(a.data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.data))
}

// Max returns the maximum element and its flat index.
func Max(a *Tensor) (float32, int) {
	if len(a.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, at := a.data[0], 0
	for i, v := range a.data {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// Argmax returns the flat index of the maximum element.
func Argmax(a *Tensor) int {
	_, at := Max(a)
	return at
}

// ArgmaxRows returns, for a 2-D tensor, the argmax of every row.
func ArgmaxRows(a *Tensor) []int {
	if len(a.shape) != 2 {
		panic("tensor: ArgmaxRows requires a 2-D tensor")
	}
	rows, cols := a.shape[0], a.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best := a.data[r*cols]
		for c := 1; c < cols; c++ {
			if v := a.data[r*cols+c]; v > best {
				best = v
				out[r] = c
			}
		}
	}
	return out
}

// Dot returns the inner product of two equal-length tensors.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", a.shape, b.shape))
	}
	s := 0.0
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// NormL2 returns the Euclidean norm.
func NormL2(a *Tensor) float64 { return math.Sqrt(Dot(a, a)) }

// NormLInf returns the maximum absolute element.
func NormLInf(a *Tensor) float64 {
	m := 0.0
	for _, v := range a.data {
		av := math.Abs(float64(v))
		if av > m {
			m = av
		}
	}
	return m
}

// checkSameLen panics unless all operands have equal element counts.
func checkSameLen(op string, dst *Tensor, srcs ...*Tensor) {
	for _, s := range srcs {
		if len(dst.data) != len(s.data) {
			panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, dst.shape, s.shape))
		}
	}
}

// AddInto stores a + b into dst. dst may alias either operand.
func AddInto(dst, a, b *Tensor) {
	checkSameLen("AddInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
}

// SubInto stores a - b into dst. dst may alias either operand.
func SubInto(dst, a, b *Tensor) {
	checkSameLen("SubInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
}

// MulInto stores a ⊙ b into dst. dst may alias either operand.
func MulInto(dst, a, b *Tensor) {
	checkSameLen("MulInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] * b.data[i]
	}
}

// ScaleInto stores alpha*a into dst. dst may alias a.
func ScaleInto(dst, a *Tensor, alpha float32) {
	checkSameLen("ScaleInto", dst, a)
	for i := range dst.data {
		dst.data[i] = alpha * a.data[i]
	}
}

// ApplyInto stores f applied elementwise over a into dst. dst may alias a.
func ApplyInto(dst, a *Tensor, f func(float32) float32) {
	checkSameLen("ApplyInto", dst, a)
	for i := range dst.data {
		dst.data[i] = f(a.data[i])
	}
}

// matView folds t into its matrix view: the last dimension is the column
// count and every leading dimension is folded into rows, so a [B,T,D]
// activation is the [B*T, D] matrix the 2-D kernels walk — no reshaped
// header is built. Rank < 2 panics.
func matView(op string, t *Tensor) (rows, cols int) {
	if len(t.shape) < 2 {
		panic(fmt.Sprintf("tensor: %s requires rank >= 2, got %v", op, t.shape))
	}
	last := len(t.shape) - 1
	rows = 1
	for _, d := range t.shape[:last] {
		rows *= d
	}
	return rows, t.shape[last]
}

// SoftmaxRowsInto stores the row-wise softmax of the matrix view of a into
// dst, numerically stabilized by the row max. dst may alias a.
func SoftmaxRowsInto(dst, a *Tensor) {
	rows, cols := matView("SoftmaxRowsInto", a)
	checkSameLen("SoftmaxRowsInto", dst, a)
	softmaxRows(dst.data, a.data, rows, cols)
}

// softmaxRows is the softmax row loop on raw [rows, cols] buffers, shared
// with the fused attention strips.
func softmaxRows(dst, a []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := a[r*cols : (r+1)*cols]
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		o := dst[r*cols : (r+1)*cols]
		for i, v := range row {
			e := math.Exp(float64(v - mx))
			o[i] = float32(e)
			sum += e
		}
		inv := float32(1.0 / sum)
		for i := range o {
			o[i] *= inv
		}
	}
}

// AddRowVectorIn adds a length-cols vector to every row of the matrix view
// of a in place (broadcast bias add).
func AddRowVectorIn(a, v *Tensor) {
	rows, cols := matView("AddRowVectorIn", a)
	if len(v.data) != cols {
		panic(fmt.Sprintf("tensor: AddRowVectorIn vector length %d != cols %d", len(v.data), cols))
	}
	for r := 0; r < rows; r++ {
		row := a.data[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v.data[c]
		}
	}
}

// SumRowsInto stores the column-wise sum of the matrix view of a into
// dst [cols], overwriting it.
func SumRowsInto(dst, a *Tensor) {
	rows, cols := matView("SumRowsInto", a)
	if len(dst.data) != cols {
		panic(fmt.Sprintf("tensor: SumRowsInto dst %v vs cols %d", dst.shape, cols))
	}
	dst.Zero()
	for r := 0; r < rows; r++ {
		row := a.data[r*cols : (r+1)*cols]
		for c, v := range row {
			dst.data[c] += v
		}
	}
}
