package core

import (
	"fmt"

	"pelta/internal/autograd"
	"pelta/internal/models"
	"pelta/internal/tee"
	"pelta/internal/tensor"
)

// LossFn builds the attacker's objective on the clear logits. It returns a
// scalar vertex (use autograd.ReduceSum-style objectives so per-sample
// gradients are unscaled).
type LossFn func(g *autograd.Graph, logits *autograd.Value) *autograd.Value

// CrossEntropyLoss returns the standard untargeted evasion objective.
func CrossEntropyLoss(labels []int) LossFn {
	return func(g *autograd.Graph, logits *autograd.Value) *autograd.Value {
		loss, _ := g.CrossEntropy(logits, labels, autograd.ReduceSum)
		return loss
	}
}

// QueryResult is everything a compromised client observes from one
// inference+backward pass on a Pelta-shielded model: the clear outputs and
// the adjoint of the shallowest clear layer. ∇xL is NOT present — it was
// moved into the enclave and scrubbed.
type QueryResult struct {
	// Logits is the model output [B, classes].
	Logits *tensor.Tensor
	// Loss is the scalar objective value of the pass.
	Loss float64
	// Adjoint is δ_{L+1} = dL/du_{L+1}, the under-factored gradient in the
	// shape of the shield boundary's output. The attacker can compute this
	// from the clear segment alone, so exposing it leaks nothing extra.
	Adjoint *tensor.Tensor
	// Report describes what Algorithm 1 stored during the pass.
	Report *ShieldReport
}

// ShieldedModel wraps a defender model with a Pelta enclave. Every Query
// runs a full pass, then applies Algorithm 1 so the shallow quantities never
// remain in normal-world memory.
type ShieldedModel struct {
	model models.Model
	// params is model.Params(), built once: the gradient sweep after a
	// gradient-producing Query walks it.
	params  []*autograd.Param
	enclave *tee.Enclave
	token   tee.Token
	pass    int
	// g is the reusable pooled graph arena of the defender's passes. Buffers
	// scrubbed into the enclave are withdrawn from the arena at Scrub time
	// and never recycled; everything else is swept back per Query.
	g *autograd.Graph
}

// NewShieldedModel shields m with a fresh enclave of the given byte limit
// (≤ 0 selects the 30 MB TrustZone default).
func NewShieldedModel(m models.Model, limit int64) (*ShieldedModel, error) {
	e, tok, err := tee.NewEnclave(m.Name(), limit)
	if err != nil {
		return nil, fmt.Errorf("core: creating enclave for %s: %w", m.Name(), err)
	}
	return &ShieldedModel{model: m, params: m.Params(), enclave: e, token: tok}, nil
}

// Model returns the wrapped defender (defender-side use only: the attacker
// API is Query/Predict).
func (s *ShieldedModel) Model() models.Model { return s.model }

// Enclave exposes the enclave for memory accounting and §VI metrics.
func (s *ShieldedModel) Enclave() *tee.Enclave { return s.enclave }

// Name returns the wrapped model's name.
func (s *ShieldedModel) Name() string { return s.model.Name() }

// Classes returns the wrapped model's class count.
func (s *ShieldedModel) Classes() int { return s.model.Classes() }

// InputShape returns the wrapped model's input shape.
func (s *ShieldedModel) InputShape() []int { return s.model.InputShape() }

// Predict runs a shielded forward pass and returns argmax classes. (No
// gradients are produced and no Param.Grad is touched; the shield still
// hides the shallow activations.)
func (s *ShieldedModel) Predict(x *tensor.Tensor) ([]int, error) {
	res, err := s.Query(x, nil)
	if err != nil {
		return nil, err
	}
	return tensor.ArgmaxRows(res.Logits), nil
}

// Query runs one pass. When loss is nil only the forward runs, in the
// graph's inference mode: no backward closure is recorded and the pass
// neither reads nor writes any Param.Grad, so serving and probing leave the
// defender's pending gradients alone. Otherwise backward runs, the adjoint
// δ_{L+1} is returned and every parameter gradient is cleared afterwards.
// In both cases Algorithm 1 shields the shallow region afterwards — the
// vertices and their parents are recorded either way, so the enclave sees
// the same stores.
func (s *ShieldedModel) Query(x *tensor.Tensor, loss LossFn) (*QueryResult, error) {
	// The defender flushes the previous pass's objects; Table I reports the
	// worst-case peak of a single pass.
	if err := s.enclave.FlushAll(s.token); err != nil {
		return nil, fmt.Errorf("core: flushing enclave: %w", err)
	}
	s.pass++

	if s.g == nil {
		s.g = autograd.NewGraphWithPool(tensor.NewPool())
	}
	g := s.g
	g.Release()
	g.SetInference(loss == nil)
	in := g.Input(x, "x")
	boundary, logits := s.model.Forward(g, in)

	res := &QueryResult{Logits: logits.Data.Clone()}
	if loss != nil {
		l := loss(g, logits)
		g.Backward(l)
		res.Loss = float64(l.Data.Data()[0])
		if boundary.Grad != nil {
			// δ_{L+1}: computable from the clear segment, handed to the
			// attacker before the boundary vertex is scrubbed.
			res.Adjoint = boundary.Grad.Clone()
		}
	}

	sel := []*autograd.Value{boundary}
	report, err := Protect(g, s.enclave, sel, s.pass)
	if err != nil {
		return nil, fmt.Errorf("core: shielding pass %d: %w", s.pass, err)
	}
	res.Report = report
	if loss != nil {
		// Gradients accumulated into the persistent parameters during this
		// pass now live in the enclave (for the shielded region) or belong
		// to the attacker's transient view (clear region); neither may
		// linger in the defender's optimizer state.
		for _, p := range s.params {
			p.ZeroGrad()
		}
	}
	if bad := VerifyScrubbed(sel); bad != nil {
		return nil, fmt.Errorf("core: vertex u%d (%s) escaped the shield", bad.ID(), bad.Op())
	}
	return res, nil
}

// Footprint measures the realized enclave cost of one gradient-producing
// pass with a single sample — the measured counterpart of the analytic
// Table I formulas in internal/models.
func (s *ShieldedModel) Footprint() (int64, error) {
	shape := append([]int{1}, s.model.InputShape()...)
	x := tensor.New(shape...)
	res, err := s.Query(x, CrossEntropyLoss([]int{0}))
	if err != nil {
		return 0, err
	}
	return res.Report.Bytes, nil
}
