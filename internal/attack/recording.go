package attack

import (
	"fmt"

	"pelta/internal/tensor"
)

// RecordingOracle wraps an Oracle and keeps a copy of every queried sample,
// in query order. It models the service-side view of an attack: each oracle
// query — forward or gradient — is one probe the defender's detector gets
// to see, so a recorded attack run replays as a detection trace
// (eval.DetectStream) without re-implementing the attack loop.
//
// Batched queries are recorded row by row, matching the one-sample-per-
// request serving surface. Rows are cloned, so the recording survives the
// oracle overwriting its buffers on the next query.
type RecordingOracle struct {
	inner   Oracle
	queries []*tensor.Tensor
}

var _ Oracle = (*RecordingOracle)(nil)
var _ RolloutGradOracle = (*RecordingOracle)(nil)

// Record wraps o so every queried sample is retained.
func Record(o Oracle) *RecordingOracle { return &RecordingOracle{inner: o} }

// Queries returns the recorded samples in query order. The slice is the
// recorder's own; callers must not mutate the tensors.
func (r *RecordingOracle) Queries() []*tensor.Tensor { return r.queries }

// Reset drops the recording (the wrapped oracle is untouched).
func (r *RecordingOracle) Reset() { r.queries = nil }

// record clones each row of a possibly batched query.
func (r *RecordingOracle) record(x *tensor.Tensor) {
	if x.Rank() == len(r.inner.InputShape())+1 {
		for i := 0; i < x.Dim(0); i++ {
			r.queries = append(r.queries, x.Slice(i).Clone())
		}
		return
	}
	r.queries = append(r.queries, x.Clone())
}

// Name implements Oracle.
func (r *RecordingOracle) Name() string { return r.inner.Name() }

// InputShape implements Oracle.
func (r *RecordingOracle) InputShape() []int { return r.inner.InputShape() }

// Classes implements Oracle.
func (r *RecordingOracle) Classes() int { return r.inner.Classes() }

// Logits implements Oracle.
func (r *RecordingOracle) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	r.record(x)
	return r.inner.Logits(x)
}

// GradCE implements Oracle.
func (r *RecordingOracle) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	r.record(x)
	return r.inner.GradCE(x, y)
}

// GradCW implements Oracle.
func (r *RecordingOracle) GradCW(x *tensor.Tensor, y []int, x0 *tensor.Tensor, kappa, c float32) (*tensor.Tensor, float64, error) {
	r.record(x)
	return r.inner.GradCW(x, y, x0, kappa, c)
}

// CanRollout implements RolloutGradOracle by delegation: true only when
// the wrapped oracle itself serves rollouts.
func (r *RecordingOracle) CanRollout() bool {
	ro, ok := r.inner.(RolloutGradOracle)
	return ok && ro.CanRollout()
}

// GradCERollout implements RolloutGradOracle by delegation.
func (r *RecordingOracle) GradCERollout(x *tensor.Tensor, y []int) (*tensor.Tensor, *tensor.Tensor, []float64, error) {
	ro, ok := r.inner.(RolloutGradOracle)
	if !ok {
		return nil, nil, nil, fmt.Errorf("attack: %s serves no rollouts", r.inner.Name())
	}
	r.record(x)
	return ro.GradCERollout(x, y)
}
