package serve

import (
	"fmt"
	"slices"

	"pelta/internal/autograd"
	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// Replica is one sequential inference engine instance. A replica is never
// queried concurrently — the scheduler binds exactly one worker goroutine
// to each replica — so implementations may reuse internal buffers freely.
// The tensor returned by Logits remains valid only until the next call.
type Replica interface {
	// Classes returns the label-space size.
	Classes() int
	// InputShape returns the per-sample shape [C,H,W].
	InputShape() []int
	// Logits runs inference on a batch [B,C,H,W] and returns [B,classes].
	Logits(x *tensor.Tensor) (*tensor.Tensor, error)
}

// ShieldedReplica serves inference through a Pelta-shielded model: every
// batch runs core.ShieldedModel.Query, so Algorithm 1 scrubs the shallow
// activations after each pass exactly as in the offline attack loops.
// ShieldedModel is documented sequential-only, which is why each replica
// must own its enclave and graph arena — see NewShieldedPool.
type ShieldedReplica struct {
	SM *core.ShieldedModel
}

var _ Replica = (*ShieldedReplica)(nil)

// Classes implements Replica.
func (r *ShieldedReplica) Classes() int { return r.SM.Classes() }

// InputShape implements Replica.
func (r *ShieldedReplica) InputShape() []int { return r.SM.InputShape() }

// Logits implements Replica with a forward-only shielded Query.
func (r *ShieldedReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	res, err := r.SM.Query(x, nil)
	if err != nil {
		return nil, err
	}
	return res.Logits, nil
}

// ClearReplica serves inference without a shield: a pooled graph arena in
// inference mode (no backward closures, no Param.Grad) over the model, for
// the -shield=false baseline.
type ClearReplica struct {
	M models.Model

	g   *autograd.Graph
	buf *tensor.Tensor
}

var _ Replica = (*ClearReplica)(nil)

// NewClearReplica wraps m in a pooled inference engine.
func NewClearReplica(m models.Model) *ClearReplica { return &ClearReplica{M: m} }

// Classes implements Replica.
func (r *ClearReplica) Classes() int { return r.M.Classes() }

// InputShape implements Replica.
func (r *ClearReplica) InputShape() []int { return r.M.InputShape() }

// Logits implements Replica.
func (r *ClearReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	if r.g == nil {
		r.g = autograd.NewGraphWithPool(tensor.NewPool())
		r.g.SetInference(true)
	}
	r.g.Release()
	_, logits := r.M.Forward(r.g, r.g.Input(x, "x"))
	// Copy out of the arena so the next Release cannot recycle the result.
	if r.buf == nil || !r.buf.SameShape(logits.Data) {
		r.buf = logits.Data.Clone()
	} else {
		r.buf.CopyFrom(logits.Data)
	}
	return r.buf, nil
}

// ReplicaPool owns N independent replicas behind one handle. Replicas must
// not share mutable state (models, graph arenas, enclaves); the scheduler
// drives each from its own worker goroutine.
type ReplicaPool struct {
	replicas []Replica
	shape    []int
}

// NewReplicaPool builds n replicas from the factory. The factory must
// return fully independent instances — in particular, distinct model
// copies, since a forward pass reads weights while Query zeroes gradients.
func NewReplicaPool(n int, build func(i int) (Replica, error)) (*ReplicaPool, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: replica pool needs ≥ 1 replica, got %d", n)
	}
	p := &ReplicaPool{replicas: make([]Replica, n)}
	for i := range p.replicas {
		r, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("serve: building replica %d/%d: %w", i, n, err)
		}
		if i > 0 {
			if r.Classes() != p.replicas[0].Classes() {
				return nil, fmt.Errorf("serve: replica %d has %d classes, replica 0 has %d",
					i, r.Classes(), p.replicas[0].Classes())
			}
			if !slices.Equal(r.InputShape(), p.replicas[0].InputShape()) {
				return nil, fmt.Errorf("serve: replica %d input shape %v, replica 0 has %v",
					i, r.InputShape(), p.replicas[0].InputShape())
			}
		}
		p.replicas[i] = r
	}
	p.shape = slices.Clone(p.replicas[0].InputShape())
	return p, nil
}

// Size returns the replica count.
func (p *ReplicaPool) Size() int { return len(p.replicas) }

// Classes returns the pool's label-space size.
func (p *ReplicaPool) Classes() int { return p.replicas[0].Classes() }

// InputShape returns the pool's per-sample input shape [C,H,W], read once
// when the pool was built. The slice is shared by every caller (the
// serving path asks for it per line), so callers must not modify it.
func (p *ReplicaPool) InputShape() []int { return p.shape }

// NewShieldedPool builds n shielded replicas, each wrapping its own model
// instance from build inside its own enclave of the given byte limit (≤ 0
// selects the TrustZone default). build must return a fresh model per call;
// sharing one model across enclaves would race on parameter gradients.
func NewShieldedPool(n int, limit int64, build func(i int) (models.Model, error)) (*ReplicaPool, error) {
	return NewReplicaPool(n, func(i int) (Replica, error) {
		m, err := build(i)
		if err != nil {
			return nil, err
		}
		sm, err := core.NewShieldedModel(m, limit)
		if err != nil {
			return nil, err
		}
		return &ShieldedReplica{SM: sm}, nil
	})
}

// NewClearPool builds n unshielded replicas, each over its own model
// instance from build.
func NewClearPool(n int, build func(i int) (models.Model, error)) (*ReplicaPool, error) {
	return NewReplicaPool(n, func(i int) (Replica, error) {
		m, err := build(i)
		if err != nil {
			return nil, err
		}
		return NewClearReplica(m), nil
	})
}
