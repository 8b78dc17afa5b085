package tensor

import (
	"math"
	"testing"
)

// TestMatrixViewMatchesReshapedTwin pins the seven matrix-view kernels: a
// rank-3 operand must give exactly the bits of its Reshape'd rank-2 twin,
// on the single-threaded path and on a sharded run. The shapes clear
// parallelThreshold so workers=5 really shards.
func TestMatrixViewMatchesReshapedTwin(t *testing.T) {
	rng := NewRNG(707)
	const B, T, D, O = 6, 33, 40, 24
	x := rng.Uniform(-1, 1, B, T, D)  // activations [B,T,D]
	gy := rng.Uniform(-1, 1, B, T, O) // upstream gradient [B,T,O]
	w := rng.Uniform(-1, 1, O, D)     // Linear weight [out,in]
	bias := rng.Uniform(-1, 1, O)
	x2, gy2 := x.Reshape(B*T, D), gy.Reshape(B*T, O)

	kernels := []struct {
		name string
		size int
		run  func(dst, x, gy *Tensor)
	}{
		{"MatMulInto", B * T * D, func(dst, _, gy *Tensor) { MatMulInto(dst, gy, w) }},
		{"MatMulTransBInto", B * T * O, func(dst, x, _ *Tensor) { MatMulTransBInto(dst, x, w) }},
		{"MatMulTransAInto", O * D, func(dst, x, gy *Tensor) { MatMulTransAInto(dst, gy, x) }},
		{"MatMulTransAAddInto", O * D, func(dst, x, gy *Tensor) {
			dst.Fill(0.25)
			MatMulTransAAddInto(dst, gy, x)
		}},
		{"SoftmaxRowsInto", B * T * D, func(dst, x, _ *Tensor) { SoftmaxRowsInto(dst, x) }},
		{"SumRowsInto", O, func(dst, _, gy *Tensor) { SumRowsInto(dst, gy) }},
		{"AddRowVectorIn", B * T * O, func(dst, _, gy *Tensor) {
			dst.CopyFrom(gy)
			AddRowVectorIn(dst.Reshape(gy.Shape()...), bias)
		}},
	}
	for _, workers := range []int{1, 5} {
		withWorkers(workers, func() {
			for _, k := range kernels {
				got, want := New(k.size), New(k.size)
				k.run(got, x, gy)
				k.run(want, x2, gy2)
				if !bitEqual(got.Data(), want.Data()) {
					t.Errorf("workers=%d: %s on a rank-3 operand diverges from its rank-2 twin", workers, k.name)
				}
				if Dot(want, want) == 0 {
					t.Errorf("%s wrote nothing", k.name)
				}
			}
		})
	}
}

// TestMatrixViewAliasing: the two kernels documented as safe in place give
// the out-of-place bits.
func TestMatrixViewAliasing(t *testing.T) {
	rng := NewRNG(808)
	a := rng.Normal(0, 3, 2, 5, 7)
	v := rng.Normal(0, 1, 7)

	want := New(2, 5, 7)
	SoftmaxRowsInto(want, a)
	got := a.Clone()
	SoftmaxRowsInto(got, got)
	if !bitEqual(got.Data(), want.Data()) {
		t.Fatal("SoftmaxRowsInto(a, a) diverges from the out-of-place result")
	}

	for r := 0; r < 10; r++ {
		for c := 0; c < 7; c++ {
			want.Data()[r*7+c] = a.Data()[r*7+c] + v.Data()[c]
		}
	}
	got = a.Clone()
	AddRowVectorIn(got, v)
	if !bitEqual(got.Data(), want.Data()) {
		t.Fatal("AddRowVectorIn diverges from the out-of-place row add")
	}
}

// TestMatrixViewPanicsKept: relaxing the rank check must not relax the
// others.
func TestMatrixViewPanicsKept(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"rank-1 matmul operand", func() { MatMulInto(New(1, 3), New(4), New(4, 3)) }},
		{"rank-1 softmax operand", func() { SoftmaxRowsInto(New(4), New(4)) }},
		{"rank-1 SumRowsInto operand", func() { SumRowsInto(New(4), New(4)) }},
		{"rank-1 AddRowVectorIn operand", func() { AddRowVectorIn(New(4), New(4)) }},
		{"inner-dimension mismatch", func() { MatMulInto(New(2, 3, 5), New(2, 3, 4), New(6, 5)) }},
		{"transB inner-dimension mismatch", func() { MatMulTransBInto(New(6, 5), New(2, 3, 4), New(5, 3)) }},
		{"matmul destination length", func() { MatMulInto(New(2, 5), New(2, 3, 4), New(4, 5)) }},
		{"transA-add destination length", func() { MatMulTransAAddInto(New(4, 4), New(2, 3, 4), New(2, 3, 5)) }},
		{"softmax destination length", func() { SoftmaxRowsInto(New(2, 3), New(2, 3, 4)) }},
		{"SumRowsInto destination length", func() { SumRowsInto(New(3), New(2, 3, 4)) }},
		{"AddRowVectorIn vector length", func() { AddRowVectorIn(New(2, 3, 4), New(3)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

// TestAllCloseRejectsNaN: a NaN on either side is never close, so a kernel
// that starts emitting NaN cannot pass the equivalence tests built on
// AllClose.
func TestAllCloseRejectsNaN(t *testing.T) {
	nan := float32(math.NaN())
	a := FromSlice([]float32{1, 2, 3}, 3)
	if !a.AllClose(a.Clone(), 0) {
		t.Fatal("equal finite tensors must be close")
	}
	if !a.AllClose(FromSlice([]float32{1, 2.5, 3}, 3), 0.5) {
		t.Fatal("a difference equal to tol must be close")
	}
	withNaN := FromSlice([]float32{1, nan, 3}, 3)
	if a.AllClose(withNaN, 1e9) || withNaN.AllClose(a, 1e9) || withNaN.AllClose(withNaN, 1e9) {
		t.Fatal("NaN must never be close")
	}
	if a.AllClose(FromSlice([]float32{1, 2}, 2), 1) {
		t.Fatal("length mismatch must not be close")
	}
}
