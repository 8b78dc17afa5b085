package tensor

import (
	"math"
	"testing"
)

func TestConvOut(t *testing.T) {
	tests := []struct {
		in, k, s, p, want int
	}{
		{32, 3, 1, 1, 32},
		{32, 3, 2, 1, 16},
		{8, 2, 2, 0, 4},
		{5, 3, 1, 0, 3},
		{7, 7, 1, 3, 7},
	}
	for _, tt := range tests {
		if got := ConvOut(tt.in, tt.k, tt.s, tt.p); got != tt.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d", tt.in, tt.k, tt.s, tt.p, got, tt.want)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: rows are just the pixels.
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	cols := im2col(x, 1, 1, 1, 0)
	if cols.Dim(0) != 4 || cols.Dim(1) != 1 {
		t.Fatalf("cols shape = %v", cols.Shape())
	}
	for i, want := range []float32{1, 2, 3, 4} {
		if cols.At(i, 0) != want {
			t.Fatalf("cols = %v", cols.Data())
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := Ones(1, 2, 2)
	cols := im2col(x, 3, 3, 1, 1) // 2x2 outputs, 9 taps each
	// Center output (0,0) window covers pad row/col: 4 ones, 5 zeros.
	row := cols.Row(0).Data()
	var n float32
	for _, v := range row {
		n += v
	}
	if n != 4 {
		t.Fatalf("padded window sum = %v, want 4", n)
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> for random x, y — the defining
	// property of an adjoint, which conv backward relies on.
	rng := NewRNG(11)
	c, h, w, kh, kw, s, p := 3, 6, 5, 3, 3, 2, 1
	x := rng.Normal(0, 1, c, h, w)
	oh, ow := ConvOut(h, kh, s, p), ConvOut(w, kw, s, p)
	y := rng.Normal(0, 1, oh*ow, c*kh*kw)
	lhs := Dot(im2col(x, kh, kw, s, p), y)
	img := New(c, h, w)
	Col2ImInto(img, y, kh, kw, s, p)
	rhs := Dot(x, img)
	if math.Abs(lhs-rhs) > 1e-3 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestConv2dKnownValues(t *testing.T) {
	// Single 2x2 input, 2x2 kernel of ones, no pad: output = sum of input.
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w := Ones(1, 1, 2, 2)
	y := conv2d(x, w, nil, 1, 0)
	if y.Len() != 1 || y.Data()[0] != 10 {
		t.Fatalf("conv = %v", y.Data())
	}
}

func TestConv2dBias(t *testing.T) {
	x := Ones(1, 1, 2, 2)
	w := Ones(2, 1, 1, 1)
	b := FromSlice([]float32{10, -10}, 2)
	y := conv2d(x, w, b, 1, 0)
	if y.At(0, 0, 0, 0) != 11 || y.At(0, 1, 0, 0) != -9 {
		t.Fatalf("conv+bias = %v", y.Data())
	}
}

func TestConv2dBatchConsistency(t *testing.T) {
	rng := NewRNG(5)
	x := rng.Normal(0, 1, 3, 2, 5, 5)
	w := rng.Normal(0, 1, 4, 2, 3, 3)
	b := rng.Normal(0, 1, 4)
	y := conv2d(x, w, b, 1, 1)
	// Per-sample conv must equal the batched result.
	for i := 0; i < 3; i++ {
		xi := x.Slice(i).Reshape(1, 2, 5, 5)
		yi := conv2d(xi, w, b, 1, 1)
		if !yi.Reshape(4, 5, 5).AllClose(y.Slice(i), 1e-5) {
			t.Fatalf("sample %d disagrees with batch", i)
		}
	}
}

func TestConv2dBackwardNumeric(t *testing.T) {
	// Finite-difference check of gx, gw, gb on a small conv.
	rng := NewRNG(6)
	x := rng.Normal(0, 1, 1, 2, 4, 4)
	w := rng.Normal(0, 0.5, 3, 2, 3, 3)
	b := rng.Normal(0, 0.5, 3)
	loss := func(x, w, b *Tensor) float64 {
		y := conv2d(x, w, b, 1, 1)
		// Quadratic loss 0.5*||y||² so dL/dy = y.
		return 0.5 * Dot(y, y)
	}
	y := conv2d(x, w, b, 1, 1)
	gx, gw, gb := New(x.Shape()...), New(w.Shape()...), New(3)
	Conv2dBackwardInto(nil, gx, gw, gb, x, w, y, 1, 1)

	const eps = 1e-2
	checkGrad := func(name string, param, grad *Tensor, idxs []int) {
		for _, i := range idxs {
			orig := param.Data()[i]
			param.Data()[i] = orig + eps
			lp := loss(x, w, b)
			param.Data()[i] = orig - eps
			lm := loss(x, w, b)
			param.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			got := float64(grad.Data()[i])
			if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: numeric %v vs analytic %v", name, i, num, got)
			}
		}
	}
	checkGrad("x", x, gx, []int{0, 7, 15, 31})
	checkGrad("w", w, gw, []int{0, 9, 17, 53})
	checkGrad("b", b, gb, []int{0, 1, 2})
}

func TestConvTranspose2dUpsamples(t *testing.T) {
	// stride-2 transposed conv on [1,1,2,2] with 2x2 kernel -> [1,1,4,4].
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w := Ones(1, 1, 2, 2)
	y := convTranspose2d(x, w, 2, 0)
	if y.Dim(2) != 4 || y.Dim(3) != 4 {
		t.Fatalf("shape = %v", y.Shape())
	}
	// Each input pixel paints a disjoint 2x2 block.
	if y.At(0, 0, 0, 0) != 1 || y.At(0, 0, 0, 2) != 2 || y.At(0, 0, 2, 0) != 3 || y.At(0, 0, 3, 3) != 4 {
		t.Fatalf("values = %v", y.Data())
	}
}

func TestConvTransposeShapeInverse(t *testing.T) {
	// A stride-s conv followed by a stride-s transposed conv with the same
	// geometry must restore the spatial dims (geometric inverse property
	// exploited by the BPDA upsampler).
	rng := NewRNG(9)
	x := rng.Normal(0, 1, 2, 3, 8, 8)
	w := rng.Normal(0, 1, 5, 3, 4, 4)
	y := conv2d(x, w, nil, 4, 0) // [2,5,2,2]
	wt := rng.Normal(0, 1, 5, 3, 4, 4)
	up := convTranspose2d(y, wt, 4, 0)
	if up.Dim(1) != 3 || up.Dim(2) != 8 || up.Dim(3) != 8 {
		t.Fatalf("upsampled shape = %v, want [2 3 8 8]", up.Shape())
	}
}

func TestMaxPool2d(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, idx := New(1, 1, 2, 2), make([]int, 4)
	MaxPool2dIdxInto(y, x, 2, 2, idx)
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("pool = %v, want %v", y.Data(), want)
		}
	}
	if idx[0] != 5 || idx[3] != 15 {
		t.Fatalf("argmax idx = %v", idx)
	}
}

func TestAvgPool2dGlobal(t *testing.T) {
	x := FromSlice([]float32{1, 3, 5, 7, 2, 2, 2, 2}, 1, 2, 2, 2)
	y := New(1, 2)
	AvgPool2dGlobalInto(y, x)
	if y.At(0, 0) != 4 || y.At(0, 1) != 2 {
		t.Fatalf("avg = %v", y.Data())
	}
}

func TestPadUnpadRoundTrip(t *testing.T) {
	rng := NewRNG(4)
	x := rng.Normal(0, 1, 2, 3, 5, 5)
	p := New(2, 3, 9, 9)
	Pad2dInto(p, x, 2)
	if p.Dim(2) != 9 || p.Dim(3) != 9 {
		t.Fatalf("pad shape = %v", p.Shape())
	}
	back := New(x.Shape()...)
	Unpad2dInto(back, p, 2)
	if !back.AllClose(x, 0) {
		t.Fatal("Unpad(Pad(x)) != x")
	}
	// Border must be zero.
	if p.At(0, 0, 0, 0) != 0 || p.At(1, 2, 8, 8) != 0 {
		t.Fatal("padding should be zero")
	}
}
