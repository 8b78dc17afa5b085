package fl

import (
	"testing"

	"pelta/internal/models"
	"pelta/internal/tensor"
)

// Three rounds of one HonestClient — one trainer, Reset every round —
// leave the same bits as three fresh models.Train runs, and so do rounds
// after its learning rate or model changed.
func TestHonestClientMatchesFreshTrain(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(4)[0]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 3}
	client := NewHonestClient("c", newTestModel(40), shard, tc)
	conn := Local(client)
	ref := newTestModel(41)
	w := Snapshot(newTestModel(42))
	for round := 1; round <= 5; round++ {
		switch round {
		case 4:
			client.Train.LR = 2e-3
		case 5:
			client.Model = newTestModel(43)
		}
		resp, err := conn.Update(UpdateRequest{Round: round, Weights: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := Apply(ref, w); err != nil {
			t.Fatal(err)
		}
		if _, err := models.Train(ref, shard.X, shard.Y, client.Train); err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, Snapshot(ref), resp.Weights)
		w = resp.Weights
	}
}

// A warm HonestClient.Update — Apply, Fit on the client's one trainer,
// Snapshot — allocates what the autograd ops of its four steps and the
// snapshot need: 721 at one kernel worker, where rebuilding the trainer
// every round cost 2882.
func TestHonestClientUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	restore := tensor.SetKernelWorkers(1)
	defer tensor.SetKernelWorkers(restore)
	train, _ := flDataset(t)
	shard := train.Shards(4)[0]
	c := NewHonestClient("c", newTestModel(40), shard, models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 3})
	req := UpdateRequest{Round: 1, Weights: Snapshot(newTestModel(41))}
	if _, err := c.Update(req); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(5, func() {
		if _, err := c.Update(req); err != nil {
			t.Fatal(err)
		}
	})
	if n > 800 {
		t.Fatalf("warm HonestClient.Update allocates %.0f times, want ≤ 800", n)
	}
}
