package autograd

import (
	"math"
	"testing"
	"testing/quick"

	"pelta/internal/tensor"
)

// Property: backward is linear — scaling the loss by a scales every
// gradient by a.
func TestBackwardLinearityProperty(t *testing.T) {
	f := func(seed int64, rawScale uint8) bool {
		scale := float32(rawScale%7) + 0.5
		rng := tensor.NewRNG(seed)
		x := rng.Normal(0, 1, 3, 4)
		w := rng.Normal(0, 1, 2, 4)

		gradFor := func(alpha float32) *tensor.Tensor {
			g := NewGraph()
			in := g.Input(x.Clone(), "x")
			y := g.Linear(in, g.Const(w, "w"), nil)
			loss := g.Scale(g.Sum(g.Mul(y, y)), alpha)
			g.Backward(loss)
			return in.Grad
		}
		g1 := gradFor(1)
		gs := gradFor(scale)
		for i := range g1.Data() {
			want := g1.Data()[i] * scale
			if math.Abs(float64(gs.Data()[i]-want)) > 1e-3*(1+math.Abs(float64(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: gradients accumulate additively when a vertex feeds two
// branches (the Σ_j of Eq. 1).
func TestGradientAccumulationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		x := rng.Normal(0, 1, 2, 3)

		// Loss = sum(x⊙a) + sum(x⊙b) must give grad a+b.
		a := rng.Normal(0, 1, 2, 3)
		b := rng.Normal(0, 1, 2, 3)
		g := NewGraph()
		in := g.Input(x, "x")
		loss := g.Add(g.Sum(g.Mul(in, g.Const(a, "a"))), g.Sum(g.Mul(in, g.Const(b, "b"))))
		g.Backward(loss)
		want := a.Clone()
		tensor.AddIn(want, b)
		return in.Grad.AllClose(want, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax outputs are a probability simplex for any input.
func TestSoftmaxSimplexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		x := rng.Normal(0, 5, 4, 6)
		g := NewGraph()
		p := g.SoftmaxLastDim(g.Input(x, "x"))
		for r := 0; r < 4; r++ {
			var sum float64
			for c := 0; c < 6; c++ {
				v := float64(p.Data.At(r, c))
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: vertex numbering respects the paper's edge condition j < i for
// every graph shape we build.
func TestEdgeOrderingProperty(t *testing.T) {
	f := func(seed int64, depthRaw uint8) bool {
		depth := int(depthRaw%4) + 1
		rng := tensor.NewRNG(seed)
		g := NewGraph()
		v := g.Input(rng.Normal(0, 1, 2, 4), "x")
		for d := 0; d < depth; d++ {
			w := NewParam("w", rng.Normal(0, 1, 4, 4))
			v = g.ReLU(g.Linear(v, g.Param(w), nil))
		}
		for _, node := range g.Nodes() {
			for _, p := range node.Parents() {
				if p.ID() >= node.ID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: LayerNorm output is invariant to a constant shift of its input
// (mean subtraction removes it).
func TestLayerNormShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64, rawShift uint8) bool {
		shift := float32(rawShift)/16 - 4
		rng := tensor.NewRNG(seed)
		x := rng.Normal(0, 1, 3, 8)
		gamma := tensor.Ones(8)
		beta := tensor.New(8)

		run := func(in *tensor.Tensor) *tensor.Tensor {
			g := NewGraph()
			return g.LayerNorm(g.Input(in, "x"), g.Const(gamma, "g"), g.Const(beta, "b")).Data
		}
		base := run(x)
		xs := tensor.New(x.Shape()...)
		tensor.ApplyInto(xs, x, func(v float32) float32 { return v + shift })
		shifted := run(xs)
		return base.AllClose(shifted, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
