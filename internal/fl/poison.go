package fl

import (
	"fmt"

	"pelta/internal/attack"
	"pelta/internal/dataset"
	"pelta/internal/models"
)

// PoisoningClient realizes the §I poisoning scenario: a malicious client
// crafts adversarial examples against its local copy of the broadcast model
// and trains on them with corrupted labels, sending the poisoned update to
// the server ("malicious clients can have the model purposefully and
// repeatedly misclassify their newfound adversarial examples to severely
// undermine the quality of the aggregated updates" [16]).
//
// Pelta mitigates the attack at its root: with the shield on the device,
// the crafted samples degenerate to noise, and the poisoned update carries
// far less targeted damage.
type PoisoningClient struct {
	Honest *HonestClient
	// Probe crafts the poison samples each round.
	Probe attack.Attack
	// PoisonFrac is the fraction of the local shard replaced by poisoned
	// samples each round.
	PoisonFrac float64
	// Shield enables Pelta on this device.
	Shield     bool
	ShieldSeed int64

	// PoisonedPerRound records how many crafted samples actually fooled
	// the local model (effective poison strength).
	PoisonedPerRound []int

	// po caches the gradient oracle across rounds.
	po *probeOracle
}

var _ Client = (*PoisoningClient)(nil)

// NewPoisoningClient builds a poisoner over shard.
func NewPoisoningClient(name string, m models.Model, shard *dataset.Dataset, tc models.TrainConfig, probe attack.Attack, poisonFrac float64, shield bool) *PoisoningClient {
	return &PoisoningClient{
		Honest:     NewHonestClient(name, m, shard, tc),
		Probe:      probe,
		PoisonFrac: poisonFrac,
		Shield:     shield,
		ShieldSeed: 1,
	}
}

// ID implements Client.
func (c *PoisoningClient) ID() string { return c.Honest.Name }

// Update implements Client: craft adversarial samples, mislabel them with
// the fooled prediction, train on the poisoned shard, and return the update.
func (c *PoisoningClient) Update(req UpdateRequest) (UpdateResponse, error) {
	if err := Apply(c.Honest.Model, req.Weights); err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: poisoner %s applying weights: %w", c.ID(), err)
	}
	poisoned, effective, err := c.poisonShard(req.Round)
	if err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: poisoner %s crafting round %d: %w", c.ID(), req.Round, err)
	}
	c.PoisonedPerRound = append(c.PoisonedPerRound, effective)
	resp, err := c.Honest.fit(req.Round, poisoned)
	if err != nil {
		return UpdateResponse{}, err
	}
	resp.Note = fmt.Sprintf("poisoned %d samples effectively (shielded=%v)", effective, c.Shield)
	return resp, nil
}

// poisonShard returns the shard with the first PoisonFrac samples replaced
// by adversarial versions labeled as the local model's fooled prediction.
// It also reports how many poison samples genuinely fooled the model.
func (c *PoisoningClient) poisonShard(round int) (*dataset.Dataset, int, error) {
	shard := c.Honest.Shard
	nPoison := int(c.PoisonFrac * float64(shard.Len()))
	if nPoison == 0 {
		return shard, 0, nil
	}
	idx := make([]int, nPoison)
	for i := range idx {
		idx[i] = i
	}
	x, y, err := models.Batch(shard.X, shard.Y, idx)
	if err != nil {
		return nil, 0, fmt.Errorf("fl: batching poison candidates: %w", err)
	}

	if c.po == nil {
		c.po = &probeOracle{model: c.Honest.Model, shield: c.Shield, seed: c.ShieldSeed, stride: 7919}
	}
	o, err := c.po.oracle(round)
	if err != nil {
		return nil, 0, err
	}
	xadv, err := c.Probe.Perturb(o, x, y)
	if err != nil {
		return nil, 0, err
	}
	pred0 := models.Predict(c.Honest.Model, x)
	pred := models.Predict(c.Honest.Model, xadv)

	out := &dataset.Dataset{
		Name:    shard.Name + "/poisoned",
		Classes: shard.Classes,
		HW:      shard.HW,
		X:       shard.X.Clone(),
		Y:       append([]int(nil), shard.Y...),
	}
	effective := 0
	for i := 0; i < nPoison; i++ {
		out.X.Slice(i).CopyFrom(xadv.Slice(i))
		if pred[i] != y[i] {
			// The crafted sample is misclassified: poison it with the
			// wrong label to entrench the misclassification.
			out.Y[i] = pred[i]
		} else {
			// Crafting failed (e.g. under Pelta): mislabel arbitrarily;
			// this is plain label noise, which FedAvg dilutes.
			out.Y[i] = (y[i] + 1) % shard.Classes
		}
		// "Effective" poison is a genuine evasion: the clean sample was
		// classified correctly and the crafted one no longer is.
		if pred0[i] == y[i] && pred[i] != y[i] {
			effective++
		}
	}
	return out, effective, nil
}
