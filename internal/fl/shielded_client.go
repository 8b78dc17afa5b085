package fl

import (
	"fmt"
	"time"

	"pelta/internal/core"
	"pelta/internal/dataset"
)

// ShieldedHonestClient trains its local replica under the enclave regime
// of §VI: gradients of the shielded parameters are produced inside the TEE
// and exported across the world boundary only every SyncEvery batches.
// On the protocol surface it is indistinguishable from an HonestClient.
type ShieldedHonestClient struct {
	Name    string
	Trainer *core.EnclaveTrainer
	Shard   *dataset.Dataset
	Epochs  int
	Batch   int
	Seed    int64
	// Now overrides the clock TrainNS is measured on (nil = wall clock).
	Now func() time.Time
}

var _ Client = (*ShieldedHonestClient)(nil)

// NewShieldedHonestClient wraps a shielded model in the enclave-training
// client. syncEvery batches of hidden gradients are accumulated per export.
func NewShieldedHonestClient(name string, sm *core.ShieldedModel, shard *dataset.Dataset, epochs, batch, syncEvery int, lr float32) (*ShieldedHonestClient, error) {
	tr, err := core.NewEnclaveTrainer(sm, lr, syncEvery)
	if err != nil {
		return nil, fmt.Errorf("fl: client %s: %w", name, err)
	}
	return &ShieldedHonestClient{
		Name:    name,
		Trainer: tr,
		Shard:   shard,
		Epochs:  epochs,
		Batch:   batch,
		Seed:    1,
	}, nil
}

// ID implements Client.
func (c *ShieldedHonestClient) ID() string { return c.Name }

// Update implements Client.
func (c *ShieldedHonestClient) Update(req UpdateRequest) (UpdateResponse, error) {
	m := c.Trainer.Model()
	if err := Apply(m, req.Weights); err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: client %s applying round %d weights: %w", c.Name, req.Round, err)
	}
	now := nowOr(c.Now)
	t0 := now()
	if _, err := c.Trainer.TrainEpochs(c.Shard.X, c.Shard.Y, c.Epochs, c.Batch, c.Seed+int64(req.Round)); err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: client %s enclave training: %w", c.Name, err)
	}
	trainNS := now().Sub(t0).Nanoseconds()
	met := c.Trainer.Enclave().Metrics()
	return UpdateResponse{
		ClientID: c.Name,
		Weights:  Snapshot(m),
		Samples:  c.Shard.Len(),
		Note: fmt.Sprintf("enclave training: %d hidden exports, %d world switches, %v overhead",
			c.Trainer.Exports, met.WorldSwitches, met.SimulatedOverhead),
		TrainNS: trainNS,
	}, nil
}
