package fl_test

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pelta/internal/core"
	"pelta/internal/dataset"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

// TestCheckpointServesBitIdenticalLogits pins the warm-start contract of
// cmd/peltaserve: a checkpoint written after federation training loads into
// the serving path and every served sample's logits are bit-identical to a
// direct ShieldedModel.Query on the same weights — micro-batching, replica
// fan-out and the scheduler must not perturb inference.
func TestCheckpointServesBitIdenticalLogits(t *testing.T) {
	const hw, classes = 8, 3
	cfg := dataset.SynthCIFAR10(hw, 21)
	cfg.Classes, cfg.TrainN, cfg.ValN = classes, 24, 12
	train, val := dataset.Generate(cfg)
	shards := train.Shards(2)

	newModel := func(s int64) models.Model {
		return models.NewViT(models.SmallViT("ViT-L/16", classes, hw, hw/4), tensor.NewRNG(s))
	}
	tc := models.TrainConfig{Epochs: 1, BatchSize: 8, LR: 2e-3, Seed: 21}

	// Train the global model for one federation round, as a sweep cell
	// would, then checkpoint it.
	server := &fl.AsyncServer{
		Global: newModel(21),
		Conns: []fl.Conn{
			fl.Local(fl.NewHonestClient("c1", newModel(22), shards[0], tc)),
			fl.Local(fl.NewHonestClient("c2", newModel(23), shards[1], tc)),
		},
		Config: fl.AsyncConfig{Rounds: 1, Deterministic: true, Workers: 1},
	}
	if _, err := server.Run(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	if err := fl.SaveModel(path, server.Global); err != nil {
		t.Fatal(err)
	}

	// Direct path: load into a fresh model, query sample by sample.
	direct := newModel(31)
	if err := fl.LoadModel(path, direct); err != nil {
		t.Fatal(err)
	}
	sm, err := core.NewShieldedModel(direct, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*tensor.Tensor, val.Len())
	for i := 0; i < val.Len(); i++ {
		res, err := sm.Query(val.X.Slice(i).Reshape(1, 3, hw, hw), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Logits.Clone()
	}

	// Serving path: the same checkpoint warm-starts every replica, exactly
	// as cmd/peltaserve builds its pool, and requests arrive concurrently
	// so they coalesce into real multi-sample batches.
	pool, err := serve.NewShieldedPool(2, 0, func(i int) (models.Model, error) {
		m := newModel(41 + int64(i))
		if err := fl.LoadModel(path, m); err != nil {
			return nil, err
		}
		return m, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(pool, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	defer svc.Close()

	var wg sync.WaitGroup
	got := make([]*serve.Result, val.Len())
	errs := make([]error, val.Len())
	maxBatch := 0
	for i := 0; i < val.Len(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = svc.Submit("query", val.X.Slice(i), time.Time{})
		}(i)
	}
	wg.Wait()

	for i := 0; i < val.Len(); i++ {
		if errs[i] != nil {
			t.Fatalf("sample %d: %v", i, errs[i])
		}
		if got[i].BatchSize > maxBatch {
			maxBatch = got[i].BatchSize
		}
		for j := 0; j < classes; j++ {
			if g, w := got[i].Logits.At(j), want[i].At(0, j); g != w {
				t.Fatalf("sample %d logit %d: served %v != direct %v (batch %d) — serving must be bit-identical",
					i, j, g, w, got[i].BatchSize)
			}
		}
	}
	t.Logf("bit-identical over %d samples (largest coalesced batch: %d)", val.Len(), maxBatch)
}
