package attack

import (
	"fmt"
	"math"

	"pelta/internal/autograd"
	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// Oracle answers the gradient queries of an attacker probing its local
// model copy.
//
// Tensors returned by Logits, GradCE and GradCW belong to the oracle and
// are overwritten by its next query (of any kind). Implementations need not
// be safe for concurrent use: query one oracle with the whole batch and let
// the kernel pool spread it across cores.
type Oracle interface {
	// Name identifies the defender.
	Name() string
	// InputShape returns [C,H,W].
	InputShape() []int
	// Classes returns the label-space size.
	Classes() int
	// Logits runs inference on a batch.
	Logits(x *tensor.Tensor) (*tensor.Tensor, error)
	// GradCE returns the gradient w.r.t. x of the summed cross-entropy
	// loss (the objective of FGSM/PGD/MIM/APGD/SAGA) together with the
	// per-sample losses of the same pass, so adaptive attacks like APGD
	// track progress without a second forward pass.
	GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error)
	// GradCW returns the gradient of the summed C&W objective
	// margin_κ(x,y) + c·‖x−x0‖² and its value.
	GradCW(x *tensor.Tensor, y []int, x0 *tensor.Tensor, kappa, c float32) (*tensor.Tensor, float64, error)
}

// RolloutGradOracle is implemented by oracles that can serve the SAGA
// attention rollout (Eq. 4) from the same pass as the gradient query,
// saving the separate rollout forward.
type RolloutGradOracle interface {
	Oracle
	// CanRollout reports whether the wrapped defender records attention
	// maps (i.e. is a ViT); callers must check it before GradCERollout.
	CanRollout() bool
	// GradCERollout returns ∇x of the summed CE loss, the attention
	// rollout map [B,C,H,W] (before the ⊙x modulation), and the per-sample
	// losses, all from one pass.
	GradCERollout(x *tensor.Tensor, y []int) (grad, rollout *tensor.Tensor, per []float64, err error)
}

// ClearOracle exposes a non-shielded model: the plain white-box of §III.
// The zero value with only M set is ready to use; the arena initializes
// lazily on the first query.
type ClearOracle struct {
	M models.Model

	g *autograd.Graph
	// gradBuf/logitsBuf/rolloutBuf persist across queries so the arena can
	// be released before returning; each is overwritten by the next query
	// of its kind.
	gradBuf    *tensor.Tensor
	logitsBuf  *tensor.Tensor
	rolloutBuf *tensor.Tensor
}

var _ Oracle = (*ClearOracle)(nil)

// NewClearOracle wraps m in a pooled gradient oracle.
func NewClearOracle(m models.Model) *ClearOracle { return &ClearOracle{M: m} }

// arena returns the oracle's reusable graph, recycling the previous pass's
// tensors. Probing must not perturb the defender's optimizer state, so
// parameter-gradient tracking is off — which also skips computing the
// weight-gradient products, roughly halving the backward pass. A
// forwardOnly pass (Logits) runs in the graph's inference mode.
func (o *ClearOracle) arena(forwardOnly bool) *autograd.Graph {
	if o.g == nil {
		o.g = autograd.NewGraphWithPool(tensor.NewPool())
		o.g.SetTrackParamGrads(false)
	}
	o.g.Release()
	o.g.SetInference(forwardOnly)
	return o.g
}

// stash copies src into buf (reallocating on shape change) and returns it.
func stash(buf **tensor.Tensor, src *tensor.Tensor) *tensor.Tensor {
	if *buf == nil || !(*buf).SameShape(src) {
		*buf = src.Clone()
	} else {
		(*buf).CopyFrom(src)
	}
	return *buf
}

// Name implements Oracle.
func (o *ClearOracle) Name() string { return o.M.Name() }

// InputShape implements Oracle.
func (o *ClearOracle) InputShape() []int { return o.M.InputShape() }

// Classes implements Oracle.
func (o *ClearOracle) Classes() int { return o.M.Classes() }

// Logits implements Oracle.
func (o *ClearOracle) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	g := o.arena(true)
	_, logits := o.M.Forward(g, g.Input(x, "x"))
	return stash(&o.logitsBuf, logits.Data), nil
}

// GradCE implements Oracle.
func (o *ClearOracle) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	g := o.arena(false)
	in := g.Input(x, "x")
	_, logits := o.M.Forward(g, in)
	loss, info := g.CrossEntropy(logits, y, autograd.ReduceSum)
	g.Backward(loss)
	return stash(&o.gradBuf, in.Grad), info.PerSample, nil
}

// CanRollout implements RolloutGradOracle.
func (o *ClearOracle) CanRollout() bool {
	_, ok := o.M.(*models.ViT)
	return ok
}

// GradCERollout implements RolloutGradOracle for ViT defenders: the
// attention maps recorded during the gradient pass feed the rollout
// directly, so SAGA needs no second forward.
func (o *ClearOracle) GradCERollout(x *tensor.Tensor, y []int) (*tensor.Tensor, *tensor.Tensor, []float64, error) {
	vit, ok := o.M.(*models.ViT)
	if !ok {
		return nil, nil, nil, fmt.Errorf("attack: %s records no attention maps", o.M.Name())
	}
	g := o.arena(false)
	// The rollout consumes the recorded maps, so opt this pass out of the
	// fused attention fast path.
	g.RequestRecorded(autograd.RecordAttention)
	in := g.Input(x, "x")
	_, logits := o.M.Forward(g, in)
	loss, info := g.CrossEntropy(logits, y, autograd.ReduceSum)
	g.Backward(loss)
	maps := vit.AttentionMaps(g)
	if len(maps) == 0 {
		return nil, nil, nil, fmt.Errorf("attack: ViT recorded no attention maps")
	}
	if o.rolloutBuf == nil || !o.rolloutBuf.SameShape(x) {
		o.rolloutBuf = tensor.New(x.Shape()...)
	}
	if err := RolloutFromMaps(mapData(maps), vit.Cfg.Heads, o.rolloutBuf); err != nil {
		return nil, nil, nil, err
	}
	return stash(&o.gradBuf, in.Grad), o.rolloutBuf, info.PerSample, nil
}

func mapData(maps []*autograd.Value) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(maps))
	for i, m := range maps {
		out[i] = m.Data
	}
	return out
}

// GradCW implements Oracle.
func (o *ClearOracle) GradCW(x *tensor.Tensor, y []int, x0 *tensor.Tensor, kappa, c float32) (*tensor.Tensor, float64, error) {
	g := o.arena(false)
	in := g.Input(x, "x")
	_, logits := o.M.Forward(g, in)
	obj := g.Add(g.CWMargin(logits, y, kappa), g.Scale(g.SqDistSum(in, x0), c))
	g.Backward(obj)
	return stash(&o.gradBuf, in.Grad), float64(obj.Data.Data()[0]), nil
}

// ShieldedOracle exposes a Pelta-shielded model: gradient queries return the
// upsampled adjoint, never ∇xL. This is the restricted white-box the paper
// evaluates in the right-hand columns of Table III.
type ShieldedOracle struct {
	SM *core.ShieldedModel
	up *Upsampler
	// adjShape is the probed adjoint shape (including batch dim), retained
	// so Reseed can redraw the kernel without another probe pass.
	adjShape []int
}

var _ Oracle = (*ShieldedOracle)(nil)

// NewShieldedOracle builds the attacker's view of sm. seed initializes the
// random-uniform upsampling kernel (§V-B: the attacker has no priors on the
// shielded parameters).
func NewShieldedOracle(sm *core.ShieldedModel, seed int64) (*ShieldedOracle, error) {
	o := &ShieldedOracle{SM: sm}
	// Discover the adjoint shape with a probe pass on a zero sample.
	shape := append([]int{1}, sm.InputShape()...)
	res, err := sm.Query(tensor.New(shape...), core.CrossEntropyLoss([]int{0}))
	if err != nil {
		return nil, fmt.Errorf("attack: probing adjoint shape: %w", err)
	}
	if res.Adjoint == nil {
		return nil, fmt.Errorf("attack: shielded model returned no adjoint")
	}
	up, err := NewUpsampler(res.Adjoint.Shape(), sm.InputShape(), seed)
	if err != nil {
		return nil, fmt.Errorf("attack: building upsampler for %s: %w", sm.Name(), err)
	}
	o.up = up
	o.adjShape = append([]int(nil), res.Adjoint.Shape()...)
	return o, nil
}

// Reseed redraws the random-uniform upsampling kernel from seed — a fresh
// attacker prior on the shielded layers — without re-probing the defender.
// It lets a long-lived oracle (e.g. one reused across federation rounds by
// a compromised client) start every attempt blind, as a newly built oracle
// would, while keeping the shielded model and its pooled arena warm.
func (o *ShieldedOracle) Reseed(seed int64) error {
	up, err := NewUpsampler(o.adjShape, o.SM.InputShape(), seed)
	if err != nil {
		return fmt.Errorf("attack: reseeding upsampler for %s: %w", o.SM.Name(), err)
	}
	o.up = up
	return nil
}

// Name implements Oracle.
func (o *ShieldedOracle) Name() string { return o.SM.Name() + "+Pelta" }

// InputShape implements Oracle.
func (o *ShieldedOracle) InputShape() []int { return o.SM.InputShape() }

// Classes implements Oracle.
func (o *ShieldedOracle) Classes() int { return o.SM.Classes() }

// Logits implements Oracle.
func (o *ShieldedOracle) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	res, err := o.SM.Query(x, nil)
	if err != nil {
		return nil, err
	}
	return res.Logits, nil
}

// GradCE implements Oracle: the true shallow backward is masked, so the
// surrogate gradient is the transposed-convolution upsampling of δ_{L+1}.
// The per-sample losses come from the clear logits, which the attacker can
// always read.
func (o *ShieldedOracle) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	res, err := o.SM.Query(x, core.CrossEntropyLoss(y))
	if err != nil {
		return nil, nil, err
	}
	grad, err := o.up.Apply(res.Adjoint)
	if err != nil {
		return nil, nil, err
	}
	return grad, perSampleFromLogits(res.Logits, y), nil
}

// GradCW implements Oracle. The ‖x−x0‖² term involves only the attacker's
// own tensors, so its gradient 2c(x−x0) is exact; the margin term goes
// through the upsampled adjoint.
func (o *ShieldedOracle) GradCW(x *tensor.Tensor, y []int, x0 *tensor.Tensor, kappa, c float32) (*tensor.Tensor, float64, error) {
	margin := func(g *autograd.Graph, logits *autograd.Value) *autograd.Value {
		return g.CWMargin(logits, y, kappa)
	}
	res, err := o.SM.Query(x, margin)
	if err != nil {
		return nil, 0, err
	}
	grad, err := o.up.Apply(res.Adjoint)
	if err != nil {
		return nil, 0, err
	}
	diff := tensor.Sub(x, x0)
	tensor.AddScaledIn(grad, 2*c, diff)
	obj := res.Loss + float64(c)*tensor.Dot(diff, diff)
	return grad, obj, nil
}

// perSampleFromLogits computes each sample's cross-entropy from clear
// logits — always attacker-computable, shielded or not.
func perSampleFromLogits(logits *tensor.Tensor, y []int) []float64 {
	probs := tensor.New(logits.Shape()...)
	tensor.SoftmaxRowsInto(probs, logits)
	out := make([]float64, len(y))
	for i, yi := range y {
		p := float64(probs.At(i, yi))
		if p < 1e-12 {
			p = 1e-12
		}
		out[i] = -math.Log(p)
	}
	return out
}

// perSampleCE computes each sample's cross-entropy through a forward-only
// oracle query (used by attacks that need losses at points where no
// gradient is wanted, e.g. Square).
func perSampleCE(o Oracle, x *tensor.Tensor, y []int) ([]float64, error) {
	logits, err := o.Logits(x)
	if err != nil {
		return nil, err
	}
	return perSampleFromLogits(logits, y), nil
}

// PredictOracle returns argmax predictions through any oracle.
func PredictOracle(o Oracle, x *tensor.Tensor) ([]int, error) {
	logits, err := o.Logits(x)
	if err != nil {
		return nil, err
	}
	return tensor.ArgmaxRows(logits), nil
}
