package fl

import (
	"testing"

	"pelta/internal/attack"
	"pelta/internal/models"
)

func TestPoisoningClientCraftsEffectivePoison(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	train, val := flDataset(t)
	shards := train.Shards(2)
	tc := models.TrainConfig{Epochs: 2, BatchSize: 16, LR: 2e-3, Seed: 1}
	probe := &attack.PGD{Eps: 0.1, Step: 0.0125, Steps: 8}

	run := func(shield bool) (*PoisoningClient, float64) {
		global := newTestModel(90)
		poisoner := NewPoisoningClient("eve", newTestModel(91), shards[0], tc, probe, 0.3, shield)
		srv := sequentialServer(global, []Conn{
			Local(poisoner),
			Local(NewHonestClient("alice", newTestModel(92), shards[1], tc)),
		}, 5)
		srv.Eval = func(m models.Model) float64 { return models.Accuracy(m, val.X, val.Y) }
		results, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		return poisoner, results[len(results)-1].Accuracy
	}

	clearPoisoner, _ := run(false)
	shieldPoisoner, _ := run(true)

	// The crafted poison only "works" when the attacker can complete the
	// chain rule: count effectively fooling samples in the last rounds.
	sum := func(xs []int, from int) int {
		total := 0
		for _, v := range xs[from:] {
			total += v
		}
		return total
	}
	// Skip early rounds where the model is untrained (any noise "fools" a
	// random model).
	lastClear := sum(clearPoisoner.PoisonedPerRound, 2)
	lastShield := sum(shieldPoisoner.PoisonedPerRound, 2)
	if lastShield >= lastClear {
		t.Fatalf("shield should reduce effective poison: clear=%d shielded=%d", lastClear, lastShield)
	}
}

func TestPoisoningClientZeroFraction(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(4)[0]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 1}
	p := NewPoisoningClient("eve", newTestModel(93), shard, tc, &attack.FGSM{Eps: 0.1}, 0, false)
	resp, err := p.Update(UpdateRequest{Round: 1, Weights: Snapshot(newTestModel(93))})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Samples != shard.Len() {
		t.Fatalf("samples = %d", resp.Samples)
	}
	if p.PoisonedPerRound[0] != 0 {
		t.Fatal("no poison expected at fraction 0")
	}
}
