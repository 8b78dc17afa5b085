package attack

import (
	"math"
	"testing"

	"pelta/internal/tensor"
)

// constOracle returns a fixed gradient, for testing attack mechanics in
// isolation from any model.
type constOracle struct {
	grad   *tensor.Tensor
	logits *tensor.Tensor
}

func (o *constOracle) Name() string      { return "const" }
func (o *constOracle) InputShape() []int { return o.grad.Shape()[1:] }
func (o *constOracle) Classes() int      { return o.logits.Dim(1) }
func (o *constOracle) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	return o.logits.Clone(), nil
}
func (o *constOracle) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	return o.grad.Clone(), make([]float64, len(y)), nil
}
func (o *constOracle) GradCW(x *tensor.Tensor, y []int, x0 *tensor.Tensor, kappa, c float32) (*tensor.Tensor, float64, error) {
	return o.grad.Clone(), 1, nil
}

func fixedOracle(b int) *constOracle {
	grad := tensor.New(b, 1, 2, 2)
	for i := range grad.Data() {
		if i%2 == 0 {
			grad.Data()[i] = 1
		} else {
			grad.Data()[i] = -1
		}
	}
	logits := tensor.New(b, 3)
	for i := 0; i < b; i++ {
		logits.Set(1, i, 0)
	}
	return &constOracle{grad: grad, logits: logits}
}

func TestFGSMStepGeometry(t *testing.T) {
	o := fixedOracle(1)
	x := tensor.Full(0.5, 1, 1, 2, 2)
	xadv, err := (&FGSM{Eps: 0.1}).Perturb(o, x, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0.6, 0.4, 0.6, 0.4}
	for i, v := range xadv.Data() {
		if math.Abs(float64(v-want[i])) > 1e-6 {
			t.Fatalf("xadv = %v, want %v", xadv.Data(), want)
		}
	}
}

func TestPGDStaysOnBallFaceWithConstantGradient(t *testing.T) {
	o := fixedOracle(1)
	x := tensor.Full(0.5, 1, 1, 2, 2)
	xadv, err := (&PGD{Eps: 0.08, Step: 0.05, Steps: 10}).Perturb(o, x, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// A constant gradient drives every pixel to the ε face.
	for i, v := range xadv.Data() {
		want := float32(0.58)
		if i%2 == 1 {
			want = 0.42
		}
		if math.Abs(float64(v-want)) > 1e-6 {
			t.Fatalf("pixel %d = %v, want %v", i, v, want)
		}
	}
}

func TestMIMVelocityPersistsThroughZeroGradient(t *testing.T) {
	// After accumulating momentum, a zero gradient step still moves along
	// the velocity (the point of MIM).
	calls := 0
	o := &switchOracle{
		fn: func() *tensor.Tensor {
			calls++
			g := tensor.New(1, 1, 2, 2)
			if calls <= 2 {
				g.Fill(1)
			}
			return g
		},
	}
	x := tensor.Full(0.5, 1, 1, 2, 2)
	xadv, err := (&MIM{Eps: 0.3, Step: 0.05, Steps: 4, Mu: 1}).Perturb(o, x, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// 4 steps of +0.05 each (velocity never dies with µ=1).
	for _, v := range xadv.Data() {
		if math.Abs(float64(v)-0.7) > 1e-5 {
			t.Fatalf("pixel = %v, want 0.7", v)
		}
	}
}

type switchOracle struct {
	fn func() *tensor.Tensor
}

func (o *switchOracle) Name() string      { return "switch" }
func (o *switchOracle) InputShape() []int { return []int{1, 2, 2} }
func (o *switchOracle) Classes() int      { return 2 }
func (o *switchOracle) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	l := tensor.New(x.Dim(0), 2)
	return l, nil
}
func (o *switchOracle) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	return o.fn(), make([]float64, len(y)), nil
}
func (o *switchOracle) GradCW(x *tensor.Tensor, y []int, x0 *tensor.Tensor, kappa, c float32) (*tensor.Tensor, float64, error) {
	return o.fn(), 1, nil
}

func TestUpsamplerDeterministicPerSeed(t *testing.T) {
	adj := tensor.NewRNG(1).Normal(0, 1, 1, 17, 48)
	u1, err := NewUpsampler([]int{1, 17, 48}, []int{3, 16, 16}, 9)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := NewUpsampler([]int{1, 17, 48}, []int{3, 16, 16}, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := u1.Apply(adj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := u2.Apply(adj)
	if err != nil {
		t.Fatal(err)
	}
	if !a.AllClose(b, 0) {
		t.Fatal("same seed must give the same kernel")
	}
	u3, err := NewUpsampler([]int{1, 17, 48}, []int{3, 16, 16}, 10)
	if err != nil {
		t.Fatal(err)
	}
	c, err := u3.Apply(adj)
	if err != nil {
		t.Fatal(err)
	}
	if a.AllClose(c, 1e-9) {
		t.Fatal("different seeds should give different kernels")
	}
}

func TestUpsamplerLinearity(t *testing.T) {
	// The transposed convolution is linear: Apply(2a) == 2·Apply(a).
	u, err := NewUpsampler([]int{1, 8, 4, 4}, []int{3, 16, 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	adj := tensor.NewRNG(3).Normal(0, 1, 1, 8, 4, 4)
	a, err := u.Apply(adj)
	if err != nil {
		t.Fatal(err)
	}
	adj2, a2 := adj.Clone(), a.Clone()
	tensor.ScaleIn(adj2, 2)
	tensor.ScaleIn(a2, 2)
	b, err := u.Apply(adj2)
	if err != nil {
		t.Fatal(err)
	}
	if !b.AllClose(a2, 1e-4) {
		t.Fatal("upsampler must be linear in the adjoint")
	}
}

func TestSuccessMaskCounts(t *testing.T) {
	o := fixedOracle(3) // always predicts class 0
	x := tensor.New(3, 1, 2, 2)
	mask, err := SuccessMask(o, x, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if mask[0] || !mask[1] || mask[2] {
		t.Fatalf("mask = %v", mask)
	}
}

func TestPerSampleCEMatchesDefinition(t *testing.T) {
	logits := tensor.FromSlice([]float32{2, 0, 0, 0, 3, 0}, 2, 3)
	o := &constOracle{grad: tensor.New(2, 1, 1, 1), logits: logits}
	losses, err := perSampleCE(o, tensor.New(2, 1, 1, 1), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Sample 0: -log(e²/(e²+2)) ; sample 1: -log(1/(e³+2)).
	want0 := -math.Log(math.Exp(2) / (math.Exp(2) + 2))
	want1 := -math.Log(1 / (math.Exp(3) + 2))
	if math.Abs(losses[0]-want0) > 1e-4 || math.Abs(losses[1]-want1) > 1e-4 {
		t.Fatalf("losses = %v, want [%v %v]", losses, want0, want1)
	}
}
