package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// The zero value is an empty scalar-less tensor; use New or FromSlice to
// construct usable values.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Format a copy: handing shape itself to fmt would make every
			// caller's shape argument escape to the heap.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Dim returns the size of dimension i, supporting negative indices from the
// end (Dim(-1) is the last dimension).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a view with a new shape sharing the same backing data.
// One dimension may be -1 to be inferred. It panics on element-count
// mismatch.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / n
		n *= shape[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: shape, data: t.data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description with a data preview.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v[", t.shape)
	limit := len(t.data)
	if limit > 8 {
		limit = 8
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%.4g", t.data[i])
	}
	if len(t.data) > limit {
		sb.WriteString(", …")
	}
	sb.WriteString("]")
	return sb.String()
}

// Bytes returns the size of the tensor's payload in bytes assuming
// single-precision floats, as used by the enclave memory accounting.
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// AllClose reports whether all elements of t and o differ by at most tol.
// A NaN on either side is never close.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if len(t.data) != len(o.data) {
		return false
	}
	for i := range t.data {
		if d := math.Abs(float64(t.data[i] - o.data[i])); !(d <= tol) {
			return false
		}
	}
	return true
}

// Row returns a view of row i of a 2-D tensor as a 1-D tensor sharing data.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	c := t.shape[1]
	return &Tensor{shape: []int{c}, data: t.data[i*c : (i+1)*c]}
}

// SliceRange returns a view of sub-tensors [i,j) along the first dimension,
// sharing backing data. For a [B,C,H,W] tensor, SliceRange(i, j) is the
// [j-i,C,H,W] chunk of samples i..j-1 — the zero-copy unit the parallel
// batched oracle hands to each worker.
func (t *Tensor) SliceRange(i, j int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: SliceRange requires rank >= 1")
	}
	if i < 0 || j < i || j > t.shape[0] {
		panic(fmt.Sprintf("tensor: SliceRange [%d,%d) out of range %d", i, j, t.shape[0]))
	}
	sub := len(t.data) / t.shape[0]
	shape := append([]int{j - i}, t.shape[1:]...)
	return &Tensor{shape: shape, data: t.data[i*sub : j*sub]}
}

// Slice returns a view of sub-tensor i along the first dimension, sharing
// backing data. For a [B,C,H,W] tensor, Slice(i) is the [C,H,W] sample i.
func (t *Tensor) Slice(i int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: Slice requires rank >= 1")
	}
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: Slice index %d out of range %d", i, t.shape[0]))
	}
	sub := len(t.data) / t.shape[0]
	return &Tensor{shape: append([]int(nil), t.shape[1:]...), data: t.data[i*sub : (i+1)*sub]}
}
