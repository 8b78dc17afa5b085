package fl

import (
	"fmt"

	"pelta/internal/dataset"
	"pelta/internal/models"
)

// Poisoning strategy names accepted by the sweep's poison axis (cmd/flsim
// -sweep.poisons). Label-flip is the adversarial-example poisoner of
// PoisoningClient; the other two are the update-space Byzantine attacks the
// robust aggregators exist to stop.
const (
	PoisonLabelFlip        = "label-flip"
	PoisonSignFlip         = "sign-flip"
	PoisonModelReplacement = "model-replacement"
)

// PoisonStrategies lists the canonical poison strategy names.
func PoisonStrategies() []string {
	return []string{PoisonLabelFlip, PoisonSignFlip, PoisonModelReplacement}
}

// ValidPoison rejects unknown poison strategy names ("" and "none" mean no
// poisoning and are accepted).
func ValidPoison(name string) error {
	switch name {
	case "", "none", PoisonLabelFlip, PoisonSignFlip, PoisonModelReplacement:
		return nil
	}
	return fmt.Errorf("fl: unknown poison strategy %q (want %s, %s or %s)",
		name, PoisonLabelFlip, PoisonSignFlip, PoisonModelReplacement)
}

// boostDelta returns prev + scale·(w - prev) — the update-space arithmetic
// shared by the Byzantine clients (scale < 0 reverses the update, scale > 1
// boosts it).
func boostDelta(prev, w Weights, scale float64) Weights {
	out := emptyLike(prev)
	for i := range out.Data {
		dst, p, v := out.Data[i], prev.Data[i], w.Data[i]
		for j := range dst {
			dst[j] = p[j] + float32(scale*(float64(v[j])-float64(p[j])))
		}
	}
	return out
}

// SignFlipClient trains honestly, then reverses its update: it reports
// prev - Gamma·(local - prev), pushing the aggregate up the loss surface it
// just descended. Under plain FedAvg a single sign-flipper cancels an
// honest client of equal sample count; robust rules spot the reversed
// coordinates as outliers.
type SignFlipClient struct {
	Honest *HonestClient
	// Gamma scales the reversed update (default 1: an exact mirror).
	Gamma float64
}

var _ Client = (*SignFlipClient)(nil)

// NewSignFlipClient builds a sign-flipping poisoner over shard.
func NewSignFlipClient(name string, m models.Model, shard *dataset.Dataset, tc models.TrainConfig) *SignFlipClient {
	return &SignFlipClient{Honest: NewHonestClient(name, m, shard, tc), Gamma: 1}
}

// ID implements Client.
func (c *SignFlipClient) ID() string { return c.Honest.Name }

// Update implements Client.
func (c *SignFlipClient) Update(req UpdateRequest) (UpdateResponse, error) {
	resp, err := c.Honest.Update(req)
	if err != nil {
		return resp, err
	}
	gamma := c.Gamma
	if gamma <= 0 {
		gamma = 1
	}
	resp.Weights = boostDelta(req.Weights, resp.Weights, -gamma)
	resp.Note = fmt.Sprintf("sign-flip poison (γ=%g)", gamma)
	return resp, nil
}

// ModelReplacementClient implements scaled model replacement (the "boosted"
// backdoor-insertion attack of Bagdasaryan et al.): it trains a malicious
// target on a label-rotated copy of its shard, then reports
// prev + Boost·(target - prev). With Boost ≈ fleet size, a plain weighted
// mean lands the global model on the malicious target in one round —
// exactly the update norm-clipping and selection defenses bound.
type ModelReplacementClient struct {
	Honest *HonestClient
	// Boost scales the malicious delta (default: the fleet size it was
	// built with, the classic full-replacement setting).
	Boost float64

	flipped *dataset.Dataset
}

var _ Client = (*ModelReplacementClient)(nil)

// NewModelReplacementClient builds a model-replacement poisoner over shard,
// boosted to replace the mean of a fleet-sized federation.
func NewModelReplacementClient(name string, m models.Model, shard *dataset.Dataset, tc models.TrainConfig, fleet int) *ModelReplacementClient {
	if fleet < 1 {
		fleet = 1
	}
	return &ModelReplacementClient{
		Honest: NewHonestClient(name, m, shard, tc),
		Boost:  float64(fleet),
	}
}

// ID implements Client.
func (c *ModelReplacementClient) ID() string { return c.Honest.Name }

// Update implements Client: train toward the label-rotated shard, then
// boost the resulting delta so the aggregate mean is replaced by it.
func (c *ModelReplacementClient) Update(req UpdateRequest) (UpdateResponse, error) {
	if err := Apply(c.Honest.Model, req.Weights); err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: replacer %s applying weights: %w", c.ID(), err)
	}
	if c.flipped == nil {
		// The malicious objective: every label rotated by one class, built
		// once and trained toward every round.
		sh := c.Honest.Shard
		c.flipped = &dataset.Dataset{
			Name:    sh.Name + "/replaced",
			Classes: sh.Classes,
			HW:      sh.HW,
			X:       sh.X,
			Y:       make([]int, len(sh.Y)),
		}
		for i, y := range sh.Y {
			c.flipped.Y[i] = (y + 1) % sh.Classes
		}
	}
	resp, err := c.Honest.fit(req.Round, c.flipped)
	if err != nil {
		return UpdateResponse{}, err
	}
	boost := c.Boost
	if boost < 1 {
		boost = 1
	}
	resp.Weights = boostDelta(req.Weights, resp.Weights, boost)
	resp.Note = fmt.Sprintf("model-replacement poison (boost=%g)", boost)
	return resp, nil
}
