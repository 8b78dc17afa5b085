package fl

import (
	"strings"
	"testing"

	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

func TestShieldedHonestClientTrainsInFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	train, val := flDataset(t)
	shards := train.Shards(2)

	global := newTestModel(60)
	smModel := newTestModel(61)
	sm, err := core.NewShieldedModel(smModel, 0)
	if err != nil {
		t.Fatal(err)
	}
	shieldedClient, err := NewShieldedHonestClient("tee-client", sm, shards[0], 2, 16, 4, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewHonestClient("plain", newTestModel(62), shards[1],
		models.TrainConfig{Epochs: 2, BatchSize: 16, LR: 2e-3, Seed: 1})

	srv := sequentialServer(global, []Conn{Local(shieldedClient), Local(plain)}, 4)
	srv.Eval = func(m models.Model) float64 { return models.Accuracy(m, val.X, val.Y) }
	results, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := results[len(results)-1]
	if last.Accuracy < 0.6 {
		t.Fatalf("federation with an enclave-training client reached only %.2f", last.Accuracy)
	}
	// The enclave client reports its §VI telemetry.
	foundTelemetry := false
	for _, r := range results {
		for _, n := range r.Notes {
			if strings.Contains(n, "hidden exports") {
				foundTelemetry = true
			}
		}
	}
	if !foundTelemetry {
		t.Fatal("enclave client should report hidden-export telemetry")
	}
	// Bandwidth accounting is populated and symmetric-ish: 2 clients
	// upload roughly 2× the broadcast size.
	if last.DownBytes <= 0 || last.UpBytes < last.DownBytes {
		t.Fatalf("bandwidth accounting wrong: down=%d up=%d", last.DownBytes, last.UpBytes)
	}
	if last.UpBytes > 3*last.DownBytes {
		t.Fatalf("up=%d down=%d: update sizes inconsistent", last.UpBytes, last.DownBytes)
	}
}

func TestWireBytesGrowsWithModel(t *testing.T) {
	small := Snapshot(newTestModel(1))
	n1, err := WireBytes(small)
	if err != nil {
		t.Fatal(err)
	}
	big := Snapshot(models.NewViT(models.SmallViT("vit-big", 4, 16, 4), tensor.NewRNG(2)))
	n2, err := WireBytes(big)
	if err != nil {
		t.Fatal(err)
	}
	if n1 <= 0 || n2 <= n1 {
		t.Fatalf("wire sizes: small=%d big=%d", n1, n2)
	}
}

func TestEnclaveTrainerExportsReduceWithSyncEvery(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(4)[0]
	countExports := func(syncEvery int) int {
		m := newTestModel(70)
		sm, err := core.NewShieldedModel(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewShieldedHonestClient("c", sm, shard, 1, 8, syncEvery, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Update(UpdateRequest{Round: 1, Weights: Snapshot(m)}); err != nil {
			t.Fatal(err)
		}
		return c.Trainer.Exports
	}
	frequent := countExports(1)
	rare := countExports(8)
	if rare >= frequent {
		t.Fatalf("larger SyncEvery must export less often: %d vs %d", rare, frequent)
	}
}
