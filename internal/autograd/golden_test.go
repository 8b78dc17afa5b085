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

// normGolden runs norm on a fresh graph, back-propagates Σ y⊙c and returns
// the bit hash of y, ∇x and the gradients of params.
func normGolden(x, c *tensor.Tensor, params []*Param, norm func(g *Graph, in *Value, ps []*Value) *Value) uint64 {
	g := NewGraph()
	in := g.Input(x, "x")
	vs := make([]*Value, len(params))
	for i, p := range params {
		p.Grad.Fill(0)
		vs[i] = g.Param(p)
	}
	y := norm(g, in, vs)
	g.Backward(g.Sum(g.Mul(y, g.Const(c, "c"))))
	ts := []*tensor.Tensor{y.Data, in.Grad}
	for _, p := range params {
		ts = append(ts, p.Grad)
	}
	return bitsHash(ts...)
}

// The LayerNorm, GroupNorm2d and BatchNorm2d hashes were taken while each op
// still ran its own loops; the shared row kernel reproduces them bit for bit.
// WSConv2d's moved on purpose: it standardized with a float64 division,
// (w−m)/σ, and gave 1206170008975585728; it now runs the shared float32
// (w−m)·(1/σ) forward and the shared backward, a last-ulp difference.
func TestNormGoldenBits(t *testing.T) {
	rng := tensor.NewRNG(27)
	tok := rng.Normal(0, 2, 2, 5, 8)
	img := rng.Normal(1, 2, 3, 4, 3, 3)
	cTok := rng.Normal(0, 1, 2, 5, 8)
	cImg := rng.Normal(0, 1, 3, 4, 3, 3)
	ln := []*Param{NewParam("ln.g", rng.Normal(1, 0.5, 8)), NewParam("ln.b", rng.Normal(0, 0.5, 8))}
	gn := []*Param{NewParam("gn.g", rng.Normal(1, 0.5, 4)), NewParam("gn.b", rng.Normal(0, 0.5, 4))}
	st := NewBatchNormState(4, 0.1)
	conv := []*Param{NewParam("ws.w", rng.Normal(0.2, 1, 5, 4, 3, 3)), NewParam("ws.b", rng.Normal(0, 1, 5))}
	cConv := rng.Normal(0, 1, 3, 5, 3, 3)

	for _, tc := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"LayerNorm", normGolden(tok, cTok, ln, func(g *Graph, in *Value, ps []*Value) *Value {
			return g.LayerNorm(in, ps[0], ps[1])
		}), 8592384180387139152},
		{"GroupNorm2d", normGolden(img, cImg, gn, func(g *Graph, in *Value, ps []*Value) *Value {
			return g.GroupNorm2d(in, ps[0], ps[1], 2)
		}), 11301766887037743020},
		{"BatchNorm2d/train", normGolden(img, cImg, gn, func(g *Graph, in *Value, ps []*Value) *Value {
			return g.BatchNorm2d(in, ps[0], ps[1], st, true)
		}), 17999580522802964109},
		{"BatchNorm2d/eval", normGolden(img, cImg, gn, func(g *Graph, in *Value, ps []*Value) *Value {
			return g.BatchNorm2d(in, ps[0], ps[1], st, false)
		}), 5307414411266084891},
		{"WSConv2d", normGolden(img, cConv, conv, func(g *Graph, in *Value, ps []*Value) *Value {
			return g.WSConv2d(in, ps[0], ps[1], 1, 1)
		}), 235292027953952735},
	} {
		if tc.got != tc.want {
			t.Errorf("%s forward+backward hash %d, want %d", tc.name, tc.got, tc.want)
		}
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
