package core

import (
	"fmt"

	"pelta/internal/autograd"
	"pelta/internal/models"
	"pelta/internal/tee"
	"pelta/internal/tensor"
)

// EnclaveTrainer performs defender-side local training under the shield —
// the "second case" of §VI. Gradients of the shielded parameters are
// produced and accumulated *inside* the enclave; they cross the world
// boundary only every SyncEvery batches, amortizing the secure-channel and
// context-switch overhead exactly as the paper suggests ("the frequency at
// which the weight updates are pulled out of the enclave could be lowered
// to allow averaging hidden gradients over larger batches").
type EnclaveTrainer struct {
	sm *ShieldedModel
	// SyncEvery is the number of batches accumulated before the hidden
	// update is exported across the boundary.
	SyncEvery int

	// tr is the shared mini-batch trainer, kept for life so its Adam
	// moments persist across calls. Moments of shielded parameters
	// conceptually reside in the secure world alongside the parameters.
	tr       *models.Trainer
	shielded []*autograd.Param
	batchNo  int
	// pending counts hidden-gradient bytes awaiting export.
	pendingBytes int64
	// Exports counts boundary crossings of hidden updates.
	Exports int
}

// NewEnclaveTrainer wires a trainer to a shielded model; lr is the Adam
// learning rate of shielded and clear parameters alike. The enclave owner
// token stays with the shielded model (defender side).
func NewEnclaveTrainer(sm *ShieldedModel, lr float32, syncEvery int) (*EnclaveTrainer, error) {
	if syncEvery < 1 {
		return nil, fmt.Errorf("core: SyncEvery must be ≥ 1, got %d", syncEvery)
	}
	shielded := sm.model.ShieldedParams()
	if len(shielded) == 0 {
		return nil, fmt.Errorf("core: model %s declares no shielded parameters", sm.Name())
	}
	return &EnclaveTrainer{
		sm:        sm,
		SyncEvery: syncEvery,
		tr:        models.NewTrainer(sm.model, nil, float64(lr)),
		shielded:  shielded,
	}, nil
}

// Model returns the defender model being trained.
func (t *EnclaveTrainer) Model() models.Model { return t.sm.model }

// Enclave exposes the enclave for §VI metering.
func (t *EnclaveTrainer) Enclave() *tee.Enclave { return t.sm.enclave }

// accumKey is the enclave object holding a parameter's accumulated hidden
// gradient between exports.
func accumKey(name string) string { return "trainer/accum/" + name }

// Step trains on one batch and returns the mean loss. Before the shared
// Adam update, the fresh shielded-parameter gradients are accumulated into
// the enclave; no gradient rests in the normal world on return.
func (t *EnclaveTrainer) Step(x *tensor.Tensor, y []int) (float64, error) {
	loss, err := t.tr.Step(x, y, nil, t.accumulate)
	if err != nil {
		return 0, err
	}
	t.batchNo++
	if t.batchNo%t.SyncEvery == 0 {
		if _, err := t.ExportHidden(); err != nil {
			return 0, err
		}
	}
	return loss, nil
}

// accumulate adds every shielded gradient to its enclave accumulator —
// enclave-resident computation, no boundary crossing is metered until the
// export. The update that follows is the secure world's: in this simulation
// the parameter tensor doubles as the enclave copy.
func (t *EnclaveTrainer) accumulate() error {
	for _, p := range t.shielded {
		key := accumKey(p.Name)
		if err := t.sm.enclave.Accumulate(t.sm.token, key, p.Grad); err != nil {
			return fmt.Errorf("core: accumulating %q: %w", key, err)
		}
		t.pendingBytes += p.Grad.Bytes()
	}
	return nil
}

// ExportHidden pulls the accumulated hidden gradients out of the enclave
// (one boundary crossing per shielded parameter) for FL aggregation, and
// resets the accumulators. It returns the exported tensors keyed by
// parameter name.
func (t *EnclaveTrainer) ExportHidden() (map[string]*tensor.Tensor, error) {
	e := t.sm.enclave
	out := make(map[string]*tensor.Tensor, len(t.shielded))
	for _, p := range t.shielded {
		key := accumKey(p.Name)
		if !e.Has(key) {
			continue
		}
		acc, err := e.Load(t.sm.token, key)
		if err != nil {
			return nil, fmt.Errorf("core: exporting %q: %w", key, err)
		}
		out[p.Name] = acc
		if err := e.Flush(t.sm.token, key); err != nil {
			return nil, err
		}
	}
	t.Exports++
	t.pendingBytes = 0
	return out, nil
}

// PendingBytes reports hidden-gradient bytes accumulated since the last
// export (the bandwidth §VI trades against update freshness).
func (t *EnclaveTrainer) PendingBytes() int64 { return t.pendingBytes }

// TrainEpochs runs full epochs over (x, y) on the schedule of models.Train
// (batch ≤ 0 means 32) but under the enclave regime, and returns per-epoch
// mean losses.
func (t *EnclaveTrainer) TrainEpochs(x *tensor.Tensor, y []int, epochs, batch int, seed int64) ([]float64, error) {
	return t.tr.Fit(x, y, models.TrainConfig{Epochs: epochs, BatchSize: batch, Seed: seed}, t.Step)
}
