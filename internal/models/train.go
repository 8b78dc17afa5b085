package models

import (
	"fmt"

	"pelta/internal/autograd"
	"pelta/internal/nn"
	"pelta/internal/tensor"
)

// TrainConfig controls the local training loop used to fit defender models
// before they are attacked (and by FL clients for their local updates).
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// Verbose prints per-epoch loss/accuracy to stdout.
	Verbose bool
}

// Trainer is the repo's one mini-batch trainer: Adam over the parameters it
// moves, one pooled graph arena swept between steps, and the seeded
// permuted-batch schedule. Its Adam moments live as long as it does; it is
// not safe for concurrent use.
type Trainer struct {
	m   Model
	opt *nn.Adam
	g   *autograd.Graph
	// all is every parameter of m: Backward fills the gradients of the ones
	// the optimizer does not move too, and Step clears them all.
	all []*autograd.Param
}

// NewTrainer builds a trainer that moves params (nil = every parameter of m)
// at learning rate lr. Attack oracles and shielded queries may have left
// gradients in the persistent parameters, so every gradient of m is cleared.
func NewTrainer(m Model, params []*autograd.Param, lr float64) *Trainer {
	t := &Trainer{m: m, g: autograd.NewGraphWithPool(tensor.NewPool()), all: m.Params()}
	if params == nil {
		params = t.all
	}
	t.opt = nn.NewAdam(params, lr)
	t.zeroGrads()
	return t
}

// Reset puts t back in the state NewTrainer leaves — zero Adam moments and
// step, an empty graph, every gradient of the model cleared — in place, so
// its pool, arena and vertex free list stay warm for the next Fit.
func (t *Trainer) Reset() {
	t.g.Release()
	t.opt.Reset()
	t.zeroGrads()
}

func (t *Trainer) zeroGrads() {
	for _, p := range t.all {
		p.ZeroGrad()
	}
}

// Step runs one pass over the batch (x, y) — forward, objective, backward,
// one Adam update — and returns the objective's value. loss builds the
// scalar objective from the logits on the trainer's graph (nil = mean
// cross-entropy against y); grads, when non-nil, sees the fresh gradients
// before the update, and its error aborts the step. Every gradient of the
// model is zero on return.
func (t *Trainer) Step(x *tensor.Tensor, y []int, loss func(g *autograd.Graph, logits *autograd.Value) *autograd.Value, grads func() error) (float64, error) {
	t.m.SetTraining(true)
	defer t.m.SetTraining(false)
	g := t.g
	g.Release()
	_, logits := t.m.Forward(g, g.Input(x, "x"))
	var obj *autograd.Value
	if loss != nil {
		obj = loss(g, logits)
	} else {
		obj, _ = g.CrossEntropy(logits, y, autograd.ReduceMean)
	}
	g.Backward(obj)
	defer t.zeroGrads()
	if grads != nil {
		if err := grads(); err != nil {
			return 0, err
		}
	}
	t.opt.Step()
	return float64(obj.Data.Data()[0]), nil
}

// Fit runs cfg.Epochs epochs of seeded permuted mini-batches over (x, y)
// through step (nil = t.Step with the default objective) and returns the
// mean loss of every epoch. A batch size ≤ 0 means 32; cfg.LR is not read,
// NewTrainer fixed the rate. Mismatched sample/label counts and failing
// steps are errors, not panics.
func (t *Trainer) Fit(x *tensor.Tensor, y []int, cfg TrainConfig, step func(x *tensor.Tensor, y []int) (float64, error)) ([]float64, error) {
	n := x.Dim(0)
	if n != len(y) {
		return nil, fmt.Errorf("models: Train given %d samples but %d labels", n, len(y))
	}
	if step == nil {
		step = func(x *tensor.Tensor, y []int) (float64, error) { return t.Step(x, y, nil, nil) }
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	batch = min(batch, n)
	rng := tensor.NewRNG(cfg.Seed)
	// One batch buffer serves every step; the tail batch is a view of it.
	bx := tensor.New(append([]int{batch}, x.Shape()[1:]...)...)
	by := make([]int, batch)

	losses := make([]float64, 0, cfg.Epochs)
	for ep := 0; ep < cfg.Epochs; ep++ {
		perm := rng.Perm(n)
		total, batches := 0.0, 0
		for start := 0; start < n; start += batch {
			idx := perm[start:min(start+batch, n)]
			vx, vy := bx, by
			if len(idx) < batch {
				vx, vy = bx.SliceRange(0, len(idx)), by[:len(idx)]
			}
			gather(vx, vy, x, y, idx)
			l, err := step(vx, vy)
			if err != nil {
				return losses, fmt.Errorf("models: epoch %d: %w", ep+1, err)
			}
			total += l
			batches++
		}
		losses = append(losses, total/float64(batches))
		if cfg.Verbose {
			fmt.Printf("  %s epoch %d/%d: loss %.4f\n", t.m.Name(), ep+1, cfg.Epochs, losses[ep])
		}
	}
	return losses, nil
}

// Train fits m on (x, y) with Adam + cross-entropy and returns the mean
// loss of every epoch. x is [N,C,H,W]; y holds N labels. Errors are
// reported, not panicked: FL clients surface them through UpdateResponse so
// a malformed shard fails its round loudly instead of corrupting the model.
func Train(m Model, x *tensor.Tensor, y []int, cfg TrainConfig) ([]float64, error) {
	return NewTrainer(m, nil, cfg.LR).Fit(x, y, cfg, nil)
}

// Batch copies the samples at idx into a fresh batch tensor, reporting
// out-of-range indices instead of panicking deep inside CopyFrom.
func Batch(x *tensor.Tensor, y []int, idx []int) (*tensor.Tensor, []int, error) {
	for _, j := range idx {
		if j < 0 || j >= x.Dim(0) || j >= len(y) {
			return nil, nil, fmt.Errorf("models: batch index %d out of range over %d samples / %d labels", j, x.Dim(0), len(y))
		}
	}
	bx := tensor.New(append([]int{len(idx)}, x.Shape()[1:]...)...)
	by := make([]int, len(idx))
	gather(bx, by, x, y, idx)
	return bx, by, nil
}

// gather copies the samples at idx, all in range, into buffers of len(idx).
// It copies rows of the backing data directly: a sample is one contiguous
// row of x's data, and bx has x's row length.
func gather(bx *tensor.Tensor, by []int, x *tensor.Tensor, y []int, idx []int) {
	if len(idx) == 0 {
		return
	}
	row := x.Len() / x.Dim(0)
	dst, src := bx.Data(), x.Data()
	for i, j := range idx {
		copy(dst[i*row:(i+1)*row], src[j*row:(j+1)*row])
		by[i] = y[j]
	}
}
