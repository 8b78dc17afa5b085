package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{"scalar-ish", []int{1}, 1},
		{"vector", []int{7}, 7},
		{"matrix", []int{3, 4}, 12},
		{"image", []int{2, 3, 8, 8}, 384},
		{"empty-dim", []int{0, 5}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if x.Len() != tt.want {
				t.Fatalf("Len = %d, want %d", x.Len(), tt.want)
			}
			if x.Rank() != len(tt.shape) {
				t.Fatalf("Rank = %d, want %d", x.Rank(), len(tt.shape))
			}
		})
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(42, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 42 {
		t.Fatalf("At = %v, want 42", got)
	}
	if got := x.Data()[1*12+2*4+3]; got != 42 {
		t.Fatalf("flat layout wrong: %v", got)
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 1)
	if x.At(0, 1) != 99 {
		t.Fatal("Reshape must share backing data")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestReshapeBadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 7
	if x.Data()[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestSliceView(t *testing.T) {
	x := New(2, 3, 2, 2)
	x.Set(5, 1, 2, 1, 1)
	s := x.Slice(1)
	if s.At(2, 1, 1) != 5 {
		t.Fatal("Slice should view second sample")
	}
	s.Set(9, 0, 0, 0)
	if x.At(1, 0, 0, 0) != 9 {
		t.Fatal("Slice must share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3}, 3)
	b := FromSlice([]float32{4, 5, -6}, 3)
	dst := New(3)
	AddInto(dst, a, b)
	if got := dst.Data(); got[0] != 5 || got[1] != 3 || got[2] != -3 {
		t.Fatalf("AddInto = %v", got)
	}
	if got := Sub(a, b).Data(); got[0] != -3 || got[1] != -7 || got[2] != 9 {
		t.Fatalf("Sub = %v", got)
	}
	MulInto(dst, a, b)
	if got := dst.Data(); got[0] != 4 || got[1] != -10 || got[2] != -18 {
		t.Fatalf("MulInto = %v", got)
	}
	ApplyInto(dst, a, func(v float32) float32 { return 2 * v })
	if got := dst.Data(); got[0] != 2 || got[1] != -4 || got[2] != 6 {
		t.Fatalf("ApplyInto = %v", got)
	}
	if got := Abs(a).Data(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Abs = %v", got)
	}
	c := a.Clone()
	ClampIn(c, -1, 1)
	if got := c.Data(); got[0] != 1 || got[1] != -1 || got[2] != 1 {
		t.Fatalf("ClampIn = %v", got)
	}
	if a.Data()[1] != -2 {
		t.Fatal("Sub/Abs must not write their operands")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{3, 4}, 2)
	AddIn(a, b)
	if a.Data()[0] != 4 || a.Data()[1] != 6 {
		t.Fatalf("AddIn = %v", a.Data())
	}
	AddScaledIn(a, 0.5, b)
	if a.Data()[0] != 5.5 || a.Data()[1] != 8 {
		t.Fatalf("AddScaledIn = %v", a.Data())
	}
	ScaleIn(a, 2)
	if a.Data()[0] != 11 {
		t.Fatalf("ScaleIn = %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{1, 5, -3, 2}, 4)
	if Sum(a) != 5 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if Mean(a) != 1.25 {
		t.Fatalf("Mean = %v", Mean(a))
	}
	if v, at := Max(a); v != 5 || at != 1 {
		t.Fatalf("Max = %v @ %d", v, at)
	}
	if Argmax(a) != 1 {
		t.Fatal("Argmax wrong")
	}
	if got := NormLInf(a); got != 5 {
		t.Fatalf("NormLInf = %v", got)
	}
	if got := NormL2(FromSlice([]float32{3, 4}, 2)); math.Abs(got-5) > 1e-9 {
		t.Fatalf("NormL2 = %v", got)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 9, 2, 8, 0, 3}, 2, 3)
	got := ArgmaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 1, 1, 1000, 0, 0}, 2, 3)
	s := New(2, 3)
	SoftmaxRowsInto(s, a)
	for c := 0; c < 3; c++ {
		if math.Abs(float64(s.At(0, c))-1.0/3) > 1e-6 {
			t.Fatalf("uniform softmax row wrong: %v", s.Row(0).Data())
		}
	}
	if s.At(1, 0) < 0.999 {
		t.Fatal("softmax should be stable for large logits")
	}
	sum := Sum(s.Row(1).Reshape(1, 3))
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("softmax row must sum to 1, got %v", sum)
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("shape = %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatal("Transpose values wrong")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := matMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := NewRNG(1)
	a := rng.Normal(0, 1, 7, 5)
	b := rng.Normal(0, 1, 5, 9)
	want := matMul(a, b)
	gotTB := matMulTransposedB(a, transpose(b))
	if !want.AllClose(gotTB, 1e-4) {
		t.Fatal("MatMulTransB disagrees with MatMul")
	}
	gotTA := matMulTransposedA(transpose(a), b)
	if !want.AllClose(gotTA, 1e-4) {
		t.Fatal("MatMulTransA disagrees with MatMul")
	}
}

func TestMatMulLargeParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(2)
	a := rng.Normal(0, 1, 130, 64)
	b := rng.Normal(0, 1, 64, 70)
	got := matMul(a, b) // exercises the parallel path
	// Serial reference.
	want := New(130, 70)
	for i := 0; i < 130; i++ {
		for j := 0; j < 70; j++ {
			var s float64
			for p := 0; p < 64; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			want.Set(float32(s), i, j)
		}
	}
	if !got.AllClose(want, 1e-3) {
		t.Fatal("parallel MatMul disagrees with serial reference")
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner-dim mismatch")
		}
	}()
	MatMulInto(New(2, 5), New(2, 3), New(4, 5))
}

func TestMatMulAssociativityWithIdentity(t *testing.T) {
	// Property: A @ I == A for random A.
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		a := rng.Normal(0, 1, 4, 4)
		id := New(4, 4)
		for i := 0; i < 4; i++ {
			id.Set(1, i, i)
		}
		return matMul(a, id).AllClose(a, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7).Normal(0, 1, 10)
	b := NewRNG(7).Normal(0, 1, 10)
	if !a.AllClose(b, 0) {
		t.Fatal("same seed must give same tensor")
	}
	c := NewRNG(8).Normal(0, 1, 10)
	if a.AllClose(c, 1e-9) {
		t.Fatal("different seeds should differ")
	}
}

func TestUniformRange(t *testing.T) {
	u := NewRNG(3).Uniform(-0.5, 0.5, 1000)
	for _, v := range u.Data() {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("uniform sample %v out of range", v)
		}
	}
}
