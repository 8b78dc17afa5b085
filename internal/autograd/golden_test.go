package autograd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"pelta/internal/tensor"
)

// bitsHash is an FNV-1a hash over the exact float32 bit patterns of ts.
func bitsHash(ts ...*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, t := range ts {
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// The hashes below were computed at the commit that still ran Linear and
// SoftmaxLastDim through the slice-level *Raw kernels; the matrix-view *Into
// kernels must reproduce them bit for bit.
func TestLinearSoftmaxGoldenBits(t *testing.T) {
	const (
		wantLinear  uint64 = 7766011987881185773
		wantSoftmax uint64 = 9609147475336013944
	)
	rng := tensor.NewRNG(14)
	x := rng.Normal(0, 1, 2, 5, 8)
	w := NewParam("w", rng.Normal(0, 1, 6, 8))
	b := NewParam("b", rng.Normal(0, 1, 6))
	c := rng.Normal(0, 1, 2, 5, 6)
	z := rng.Normal(0, 2, 2, 5, 6)

	g := NewGraph()
	in := g.Input(x, "x")
	y := g.Linear(in, g.Param(w), g.Param(b))
	g.Backward(g.Sum(g.Mul(y, g.Const(c, "c"))))
	if got := bitsHash(y.Data, in.Grad, w.Grad, b.Grad); got != wantLinear {
		t.Errorf("Linear forward+∇x+∇w+∇b hash %d, want %d", got, wantLinear)
	}

	g = NewGraph()
	in = g.Input(z, "z")
	p := g.SoftmaxLastDim(in)
	g.Backward(g.Sum(g.Mul(p, g.Const(c, "c"))))
	if got := bitsHash(p.Data, in.Grad); got != wantSoftmax {
		t.Errorf("SoftmaxLastDim forward+backward hash %d, want %d", got, wantSoftmax)
	}
}

// Graph.MatMul stays 2-D: the kernels now accept the matrix view of a 3-D
// left operand, but the [Dim(0), Dim(1)] output the op allocates is too
// short for it, so the destination check still rejects the call.
func TestMatMul3DLeftOperandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a 3-D left operand")
		}
	}()
	g := NewGraph()
	g.MatMul(g.Input(tensor.New(2, 3, 4), "a"), g.Const(tensor.New(4, 5), "b"))
}
