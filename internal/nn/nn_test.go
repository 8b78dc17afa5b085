package nn

import (
	"math"
	"testing"
	"testing/quick"

	"pelta/internal/autograd"
	"pelta/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("fc", 4, 3, true, rng)
	g := autograd.NewGraph()
	y := l.Forward(g, g.Input(rng.Normal(0, 1, 5, 4), "x"))
	if y.Data.Dim(0) != 5 || y.Data.Dim(1) != 3 {
		t.Fatalf("shape = %v", y.Data.Shape())
	}
	if len(l.Params()) != 2 {
		t.Fatalf("params = %d", len(l.Params()))
	}
	noBias := NewLinear("fc2", 4, 3, false, rng)
	if len(noBias.Params()) != 1 {
		t.Fatal("bias-less linear should expose one param")
	}
}

func TestConvLayersForwardShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	x := rng.Normal(0, 1, 2, 3, 8, 8)
	conv := NewConv2d("c", 3, 5, 3, 2, 1, true, rng)
	g := autograd.NewGraph()
	y := conv.Forward(g, g.Input(x, "x"))
	if y.Data.Dim(1) != 5 || y.Data.Dim(2) != 4 {
		t.Fatalf("conv shape = %v", y.Data.Shape())
	}
	ws := NewWSConv2d("w", 3, 5, 3, 1, 1, false, rng)
	g2 := autograd.NewGraph()
	y2 := ws.Forward(g2, g2.Input(x, "x"))
	if y2.Data.Dim(2) != 8 {
		t.Fatalf("wsconv shape = %v", y2.Data.Shape())
	}
}

func TestWSConvStandardizesKernels(t *testing.T) {
	// The effective kernel of a WSConv has ~zero mean per output channel:
	// feeding a constant image through a 1-channel WSConv (no bias) with
	// full padding yields near-zero interior responses.
	rng := tensor.NewRNG(3)
	ws := NewWSConv2d("w", 1, 1, 3, 1, 1, false, rng)
	g := autograd.NewGraph()
	x := tensor.Full(5, 1, 1, 8, 8)
	y := ws.Forward(g, g.Input(x, "x"))
	// Interior output (away from padding) = 5 * sum(standardized kernel) ≈ 0.
	if v := math.Abs(float64(y.Data.At(0, 0, 4, 4))); v > 1e-4 {
		t.Fatalf("interior response %v, want ~0 for standardized kernel", v)
	}
}

func TestNormLayersPreserveShape(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := autograd.NewGraph()
	ln := NewLayerNorm("ln", 6)
	x := g.Input(rng.Normal(3, 2, 4, 6), "x")
	y := ln.Forward(g, x)
	if !y.Data.SameShape(x.Data) {
		t.Fatal("layernorm changed shape")
	}
	// Normalized rows have ~zero mean.
	row := y.Data.Row(0)
	if m := tensor.Mean(row.Reshape(1, 6)); math.Abs(m) > 1e-4 {
		t.Fatalf("row mean = %v", m)
	}

	img := rng.Normal(0, 1, 2, 4, 3, 3)
	bn := NewBatchNorm2d("bn", 4)
	gn := NewGroupNorm2d("gn", 4, 2)
	g2 := autograd.NewGraph()
	in := g2.Input(img, "x")
	if !bn.Forward(g2, in, true).Data.SameShape(img) {
		t.Fatal("batchnorm changed shape")
	}
	if !gn.Forward(g2, in).Data.SameShape(img) {
		t.Fatal("groupnorm changed shape")
	}
}

func TestGroupNormRejectsBadGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 4 channels / 3 groups")
		}
	}()
	NewGroupNorm2d("gn", 4, 3)
}

func TestMHSAAttentionRecorded(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := NewMHSA("attn", 8, 2, rng)
	g := autograd.NewGraph()
	g.RequestRecorded(autograd.RecordAttention)
	y := m.Forward(g, g.Input(rng.Normal(0, 1, 2, 5, 8), "x"))
	if !y.Data.SameShape(tensor.New(2, 5, 8)) {
		t.Fatalf("attn out shape = %v", y.Data.Shape())
	}
	maps := g.Recorded(autograd.RecordAttention)
	if len(maps) != 1 {
		t.Fatalf("attention probabilities recorded = %d, want 1", len(maps))
	}
	if maps[0].Data.Dim(0) != 4 { // B*heads
		t.Fatalf("attn shape = %v", maps[0].Data.Shape())
	}
	if len(m.Params()) != 8 {
		t.Fatalf("params = %d, want 8 (4 linears × W,b)", len(m.Params()))
	}
}

func TestMHSAFusedMatchesRecordedBitwise(t *testing.T) {
	// The fused attention kernel and the materializing RequestRecorded chain
	// must be interchangeable: identical logits AND identical input
	// gradients, bit for bit, so consumers can opt into recording without
	// perturbing the attack trajectory.
	rng := tensor.NewRNG(21)
	m := NewMHSA("attn", 16, 4, rng)
	x := rng.Normal(0, 1, 3, 9, 16)

	run := func(record bool) (y, gx []float32) {
		g := autograd.NewGraph()
		if record {
			g.RequestRecorded(autograd.RecordAttention)
		}
		in := g.Input(x, "x")
		out := m.Forward(g, in)
		g.Backward(g.Sum(out))
		y = append([]float32(nil), out.Data.Data()...)
		gx = append([]float32(nil), in.Grad.Data()...)
		return
	}
	yF, gxF := run(false)
	yR, gxR := run(true)
	for i := range yF {
		if math.Float32bits(yF[i]) != math.Float32bits(yR[i]) {
			t.Fatalf("fused and recorded outputs diverge at %d: %v vs %v", i, yF[i], yR[i])
		}
	}
	for i := range gxF {
		if math.Float32bits(gxF[i]) != math.Float32bits(gxR[i]) {
			t.Fatalf("fused and recorded input grads diverge at %d: %v vs %v", i, gxF[i], gxR[i])
		}
	}
}

// An inference pass skips the tape, not the artifacts its consumer asked
// for: with RequestRecorded the attention maps are still recorded, and they
// (and the block output) carry the taped pass's bits.
func TestInferencePassStillRecordsAttention(t *testing.T) {
	rng := tensor.NewRNG(22)
	m := NewMHSA("attn", 16, 4, rng)
	x := rng.Normal(0, 1, 3, 9, 16)

	run := func(inference bool) (y, attn *tensor.Tensor) {
		g := autograd.NewGraph()
		g.SetInference(inference)
		g.RequestRecorded(autograd.RecordAttention)
		out := m.Forward(g, g.Input(x, "x"))
		maps := g.Recorded(autograd.RecordAttention)
		if len(maps) != 1 {
			t.Fatalf("inference=%v: %d attention maps recorded, want 1", inference, len(maps))
		}
		return out.Data, maps[0].Data
	}
	yT, aT := run(false)
	yI, aI := run(true)
	if !yI.AllClose(yT, 0) || !aI.AllClose(aT, 0) {
		t.Fatal("inference pass output or attention map differs from the taped pass")
	}
}

func TestMHSARejectsIndivisibleHeads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim 7, heads 2")
		}
	}()
	NewMHSA("bad", 7, 2, tensor.NewRNG(1))
}

func TestEncoderBlockResidualProperty(t *testing.T) {
	// With zeroed output projections the block must be the identity.
	rng := tensor.NewRNG(6)
	e := NewEncoderBlock("blk", 8, 2, 16, rng)
	e.Attn.Wo.W.Data.Zero()
	e.Attn.Wo.B.Data.Zero()
	e.FC2.W.Data.Zero()
	e.FC2.B.Data.Zero()
	g := autograd.NewGraph()
	x := rng.Normal(0, 1, 1, 3, 8)
	y := e.Forward(g, g.Input(x, "x"))
	if !y.Data.AllClose(x, 1e-6) {
		t.Fatal("zeroed-projection encoder block should be the identity (pre-norm residual)")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² with Adam.
	p := autograd.NewParam("w", tensor.FromSlice([]float32{0}, 1))
	opt := NewAdam([]*autograd.Param{p}, 0.1)
	for i := 0; i < 300; i++ {
		w := p.Data.Data()[0]
		p.Grad.Data()[0] = 2 * (w - 3)
		opt.Step()
	}
	if w := p.Data.Data()[0]; math.Abs(float64(w)-3) > 0.05 {
		t.Fatalf("Adam converged to %v, want 3", w)
	}
}

func TestXavierUniformBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		w := XavierUniform(rng, 8, 12)
		bound := math.Sqrt(6.0 / 20.0)
		for _, v := range w.Data() {
			if float64(v) < -bound || float64(v) >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHeNormalVariance(t *testing.T) {
	rng := tensor.NewRNG(7)
	w := HeNormal(rng, 64, 16, 3, 3)
	var sum, sq float64
	for _, v := range w.Data() {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	n := float64(w.Len())
	variance := sq/n - (sum/n)*(sum/n)
	want := 2.0 / (16 * 9)
	if variance < want/2 || variance > want*2 {
		t.Fatalf("He variance = %v, want ≈ %v", variance, want)
	}
}

func TestTruncNormalWithinBounds(t *testing.T) {
	rng := tensor.NewRNG(8)
	w := TruncNormal(rng, 0.02, 1000)
	for _, v := range w.Data() {
		if math.Abs(float64(v)) > 0.04 {
			t.Fatalf("value %v outside ±2σ", v)
		}
	}
}

func TestCollectParamsAndBytes(t *testing.T) {
	rng := tensor.NewRNG(9)
	a := NewLinear("a", 2, 3, true, rng)  // 6 + 3 params
	b := NewLinear("b", 3, 1, false, rng) // 3 params
	ps := CollectParams(a, b)
	if len(ps) != 3 {
		t.Fatalf("collected %d params", len(ps))
	}
	if got := ParamBytes(ps); got != (6+3+3)*4 {
		t.Fatalf("ParamBytes = %d", got)
	}
}
