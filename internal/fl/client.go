package fl

import (
	"fmt"
	"time"

	"pelta/internal/dataset"
	"pelta/internal/models"
)

// UpdateRequest is the server's per-round broadcast.
type UpdateRequest struct {
	Round   int
	Weights Weights
}

// UpdateResponse carries one client's local update back for aggregation.
type UpdateResponse struct {
	ClientID string
	Weights  Weights
	Samples  int
	// Note is free-form client telemetry (used by the compromised client
	// to report attack outcomes in the simulation logs).
	Note string
	// TrainNS is the client-measured wall time of local training in
	// nanoseconds. The round engines subtract it from each update's
	// round-trip time to attribute transport separately from compute in
	// the per-round phase spans.
	TrainNS int64
}

// Client computes local updates from broadcast weights.
type Client interface {
	ID() string
	Update(req UpdateRequest) (UpdateResponse, error)
}

// HonestClient fine-tunes the broadcast model on its private shard.
type HonestClient struct {
	Name  string
	Model models.Model
	Shard *dataset.Dataset
	Train models.TrainConfig
	// Now overrides the clock TrainNS is measured on (nil = wall clock).
	// Tests inject a counter to make round spans exact.
	Now func() time.Time

	// tr is the client's one trainer, built on first use for trModel at
	// trLR and reset before every round.
	tr      *models.Trainer
	trModel models.Model
	trLR    float64
}

var _ Client = (*HonestClient)(nil)

// NewHonestClient builds a client around a local model replica.
func NewHonestClient(name string, m models.Model, shard *dataset.Dataset, tc models.TrainConfig) *HonestClient {
	return &HonestClient{Name: name, Model: m, Shard: shard, Train: tc}
}

// ID implements Client.
func (c *HonestClient) ID() string { return c.Name }

// Update implements Client: load global weights, train locally, return the
// new weights (user data never leaves the device).
func (c *HonestClient) Update(req UpdateRequest) (UpdateResponse, error) {
	if err := Apply(c.Model, req.Weights); err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: client %s applying round %d weights: %w", c.Name, req.Round, err)
	}
	return c.fit(req.Round, c.Shard)
}

// fit is the timed local-training step HonestClient, PoisoningClient and
// ModelReplacementClient share: train c.Model on d, snapshot the result.
// TrainNS covers training and the snapshot. Every round trains from fresh
// optimizer state, as models.Train does, on the client's one trainer: it is
// rebuilt only when Model or Train.LR changed since it was built.
func (c *HonestClient) fit(round int, d *dataset.Dataset) (UpdateResponse, error) {
	now := nowOr(c.Now)
	t0 := now()
	if c.tr == nil || c.trModel != c.Model || c.trLR != c.Train.LR {
		c.tr, c.trModel, c.trLR = models.NewTrainer(c.Model, nil, c.Train.LR), c.Model, c.Train.LR
	} else {
		c.tr.Reset()
	}
	if _, err := c.tr.Fit(d.X, d.Y, c.Train, nil); err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: client %s training round %d: %w", c.Name, round, err)
	}
	return UpdateResponse{
		ClientID: c.Name,
		Weights:  Snapshot(c.Model),
		Samples:  d.Len(),
		TrainNS:  now().Sub(t0).Nanoseconds(),
	}, nil
}
