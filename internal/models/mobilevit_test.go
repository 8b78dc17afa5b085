package models

import (
	"testing"

	"pelta/internal/autograd"
	"pelta/internal/tensor"
)

func TestMobileViTForwardShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := NewMobileViT(SmallMobileViT("mvit-test", 10, 16), rng)
	x := rng.Uniform(0, 1, 2, 3, 16, 16)
	g := autograd.NewGraph()
	boundary, logits := m.Forward(g, g.Input(x, "x"))
	if logits.Data.Dim(0) != 2 || logits.Data.Dim(1) != 10 {
		t.Fatalf("logits shape = %v", logits.Data.Shape())
	}
	if boundary.Op() != "relu" {
		t.Fatalf("boundary op = %q, want stem relu", boundary.Op())
	}
	if boundary.Data.Dim(1) != 16 {
		t.Fatalf("boundary shape = %v", boundary.Data.Shape())
	}
}

func TestMobileViTGradientsReachInput(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewMobileViT(SmallMobileViT("mvit-grad", 4, 8), rng)
	x := rng.Uniform(0, 1, 1, 3, 8, 8)
	g := autograd.NewGraph()
	in := g.Input(x, "x")
	_, logits := m.Forward(g, in)
	loss, _ := g.CrossEntropy(logits, []int{2}, autograd.ReduceSum)
	g.Backward(loss)
	if in.Grad == nil || tensor.NormL2(in.Grad) == 0 {
		t.Fatal("no input gradient through MobileViT")
	}
}

func TestMobileViTTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	d := smallDataset(t, 4, 8, 64)
	m := NewMobileViT(SmallMobileViT("mvit-train", 4, 8), tensor.NewRNG(3))
	losses, err := Train(m, d.X, d.Y, TrainConfig{Epochs: 8, BatchSize: 16, LR: 2e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
	if acc := Accuracy(m, d.X, d.Y); acc < 0.7 {
		t.Fatalf("train accuracy = %.2f", acc)
	}
}

func TestMobileViTShieldedParamsSubset(t *testing.T) {
	m := NewMobileViT(SmallMobileViT("mvit-shield", 4, 8), tensor.NewRNG(4))
	all := map[*autograd.Param]bool{}
	for _, p := range m.Params() {
		all[p] = true
	}
	sh := m.ShieldedParams()
	if len(sh) == 0 || len(sh) >= len(all) {
		t.Fatalf("shielded params = %d of %d", len(sh), len(all))
	}
	for _, p := range sh {
		if !all[p] {
			t.Fatalf("shielded param %s not in model", p.Name)
		}
	}
}

func TestUnpatchifyInvertsPatchify(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := rng.Normal(0, 1, 2, 3, 8, 8)
	g := autograd.NewGraph()
	in := g.Input(x, "x")
	back := g.Unpatchify(g.Patchify(in, 2), 3, 8, 8, 2)
	if !back.Data.AllClose(x, 0) {
		t.Fatal("Unpatchify(Patchify(x)) != x")
	}
	// Gradient flows back through the round trip as identity.
	loss := g.Sum(g.Mul(back, back))
	g.Backward(loss)
	want := x.Clone()
	tensor.ScaleIn(want, 2)
	if !in.Grad.AllClose(want, 1e-4) {
		t.Fatal("round-trip gradient wrong")
	}
}
