package attack

import (
	"fmt"

	"pelta/internal/autograd"
	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// SubstituteStemOracle implements the adaptive attacker of §VII(ii) / §IV-C:
// instead of upsampling the adjoint, the attacker trains its own
// differentiable approximation g of the shielded shallow layers (a BPDA
// substitute), using (a) the clear deep weights it can read from its device
// and (b) its own local data, supervised by the shielded model's observable
// logits. Gradient queries then backpropagate through g.
//
// The paper hypothesizes this requires "training resources equivalent to
// that of the FL system" and cites [68] on its limitations; the ablation
// bench quantifies how far a budget-limited substitute gets.
type SubstituteStemOracle struct {
	victim *core.ShieldedModel
	// substitute is a full ViT: a freshly initialized stem grafted onto a
	// copy of the victim's clear blocks.
	substitute *models.ViT
	// sub answers gradient queries through the substitute with a pooled
	// arena reused across the attack's iterations.
	sub *ClearOracle
}

var _ Oracle = (*SubstituteStemOracle)(nil)

// SubstituteBudget bounds the attacker's training effort.
type SubstituteBudget struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// DefaultSubstituteBudget is the "limited time and number of passes"
// regime of §IV-C.
func DefaultSubstituteBudget() SubstituteBudget {
	return SubstituteBudget{Epochs: 3, BatchSize: 16, LR: 2e-3, Seed: 1}
}

// NewSubstituteStemOracle distills a substitute stem for a shielded ViT
// from the attacker's local samples x (labels are not needed: the shielded
// model's own logits supervise the stem).
func NewSubstituteStemOracle(victim *core.ShieldedModel, vit *models.ViT, x *tensor.Tensor, budget SubstituteBudget) (*SubstituteStemOracle, error) {
	if x.Dim(0) == 0 {
		return nil, fmt.Errorf("attack: substitute training needs local samples")
	}
	// Build the substitute: new stem parameters, shared clear deep layers.
	// Reading the deep weights is legitimate — they are outside the shield.
	sub := models.NewViT(vit.Cfg, tensor.NewRNG(budget.Seed))
	copyClearLayers(sub, vit)

	o := &SubstituteStemOracle{victim: victim, substitute: sub, sub: NewClearOracle(sub)}
	if err := o.distill(x, budget); err != nil {
		return nil, err
	}
	return o, nil
}

// copyClearLayers copies every non-shielded parameter from src into dst,
// leaving dst's stem (the shielded region) at its random initialization.
func copyClearLayers(dst, src *models.ViT) {
	shielded := make(map[string]bool)
	for _, p := range src.ShieldedParams() {
		shielded[p.Name] = true
	}
	srcParams := src.Params()
	for i, p := range dst.Params() {
		if shielded[srcParams[i].Name] {
			continue
		}
		p.Data.CopyFrom(srcParams[i].Data)
	}
}

// distill trains only the substitute's stem parameters, on the shared
// mini-batch trainer, so that the full substitute matches the victim's
// observable logits on the attacker's data.
func (o *SubstituteStemOracle) distill(x *tensor.Tensor, budget SubstituteBudget) error {
	tr := models.NewTrainer(o.substitute, o.substitute.ShieldedParams(), budget.LR)
	cfg := models.TrainConfig{Epochs: budget.Epochs, BatchSize: budget.BatchSize, Seed: budget.Seed}
	_, err := tr.Fit(x, make([]int, x.Dim(0)), cfg, func(bx *tensor.Tensor, _ []int) (float64, error) {
		// Teacher signal: the shielded model's logits (observable).
		res, err := o.victim.Query(bx, nil)
		if err != nil {
			return 0, fmt.Errorf("attack: querying teacher: %w", err)
		}
		// Student pass: MSE to the teacher logits; the trainer moves only
		// the stem and discards the clear layers' gradients.
		return tr.Step(bx, nil, func(g *autograd.Graph, logits *autograd.Value) *autograd.Value {
			diff := g.Sub(logits, g.Const(res.Logits, "teacher"))
			return g.Mean(g.Mul(diff, diff))
		}, nil)
	})
	return err
}

// Name implements Oracle.
func (o *SubstituteStemOracle) Name() string { return o.victim.Name() + "+substitute" }

// InputShape implements Oracle.
func (o *SubstituteStemOracle) InputShape() []int { return o.victim.InputShape() }

// Classes implements Oracle.
func (o *SubstituteStemOracle) Classes() int { return o.victim.Classes() }

// Logits implements Oracle: predictions still come from the real (shielded)
// victim — only gradients are approximated.
func (o *SubstituteStemOracle) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	res, err := o.victim.Query(x, nil)
	if err != nil {
		return nil, err
	}
	return res.Logits, nil
}

// GradCE implements Oracle through the substitute's backward pass.
func (o *SubstituteStemOracle) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	return o.sub.GradCE(x, y)
}

// GradCW implements Oracle through the substitute's backward pass.
func (o *SubstituteStemOracle) GradCW(x *tensor.Tensor, y []int, x0 *tensor.Tensor, kappa, c float32) (*tensor.Tensor, float64, error) {
	return o.sub.GradCW(x, y, x0, kappa, c)
}
