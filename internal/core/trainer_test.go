package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"pelta/internal/autograd"
	"pelta/internal/dataset"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

func trainerFixture(t *testing.T) (*EnclaveTrainer, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.SynthCIFAR10(8, 81)
	cfg.Classes = 4
	cfg.TrainN, cfg.ValN = 96, 32
	train, _ := dataset.Generate(cfg)
	m := models.NewViT(models.SmallViT("vit-enclave-train", 4, 8, 4), tensor.NewRNG(1))
	sm, err := NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewEnclaveTrainer(sm, 2e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tr, train
}

func TestEnclaveTrainerLearns(t *testing.T) {
	tr, train := trainerFixture(t)
	losses, err := tr.TrainEpochs(train.X, train.Y, 12, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease under enclave training: %v", losses)
	}
	if acc := models.Accuracy(tr.sm.Model(), train.X, train.Y); acc < 0.5 {
		t.Fatalf("train accuracy %.2f after enclave training", acc)
	}
}

func TestEnclaveTrainerBatchesHiddenExports(t *testing.T) {
	tr, train := trainerFixture(t)
	// 6 batches with SyncEvery=3 → exactly 2 automatic exports.
	for i := 0; i < 6; i++ {
		bx, by, err := models.Batch(train.X, train.Y, []int{i, i + 1, i + 2, i + 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Step(bx, by); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Exports != 2 {
		t.Fatalf("exports = %d, want 2", tr.Exports)
	}
	if tr.PendingBytes() != 0 {
		t.Fatalf("pending = %d after export", tr.PendingBytes())
	}
}

func TestEnclaveTrainerAccumulatesBetweenExports(t *testing.T) {
	tr, train := trainerFixture(t)
	bx, by, err := models.Batch(train.X, train.Y, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(bx, by); err != nil {
		t.Fatal(err)
	}
	if tr.PendingBytes() == 0 {
		t.Fatal("hidden gradients should be pending before the sync point")
	}
	// The accumulator lives in the enclave, not the normal world.
	found := false
	for _, p := range tr.sm.Model().ShieldedParams() {
		if tr.sm.Enclave().Has(accumKey(p.Name)) {
			found = true
		}
		if tensor.NormL2(p.Grad) != 0 {
			t.Fatalf("shielded grad %s lingers in normal world", p.Name)
		}
	}
	if !found {
		t.Fatal("no enclave accumulator present")
	}
	hidden, err := tr.ExportHidden()
	if err != nil {
		t.Fatal(err)
	}
	if len(hidden) == 0 {
		t.Fatal("export returned nothing")
	}
	for name, g := range hidden {
		if g.Len() == 0 || tensor.NormL2(g) == 0 {
			t.Fatalf("exported gradient %s is empty", name)
		}
	}
}

func TestEnclaveTrainerValidation(t *testing.T) {
	m := models.NewViT(models.SmallViT("vit-val", 4, 8, 4), tensor.NewRNG(2))
	sm, err := NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEnclaveTrainer(sm, 0.01, 0); err == nil {
		t.Fatal("SyncEvery 0 must fail")
	}
}

// The hash is taken at the commit that moved EnclaveTrainer onto the shared
// models.Trainer. Its private Adam gave 1193617589538223423: it declared β1
// and β2 as constants, so (1-β) folded exactly at compile time, where
// nn.Adam evaluates it on float64 fields at run time (0.09999999999999998,
// 0.0010000000000000009) — a last-ulp difference, moved on purpose. Feeding
// nn.Adam the folded constants reproduces the old hash exactly, so the shared
// schedule, buffer and accumulate-then-update order change nothing; the
// enclave counters are the parent's.
func TestEnclaveTrainerGoldenBits(t *testing.T) {
	const want uint64 = 5774374930889319279
	tr, train := trainerFixture(t)
	if _, err := tr.TrainEpochs(train.X, train.Y, 2, 16, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.TrainEpochs(train.X, train.Y, 1, 10, 2); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [4]byte
	for _, p := range tr.Model().Params() {
		for _, v := range p.Data.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("parameter hash %d, want %d", got, want)
	}
	if sw := tr.Enclave().Metrics().WorldSwitches; tr.Exports != 7 || tr.PendingBytes() != 10560 || sw != 28 {
		t.Fatalf("exports %d pending %d world switches %d, want 7 / 10560 / 28", tr.Exports, tr.PendingBytes(), sw)
	}
}

// A batch size ≤ 0 used to spin TrainEpochs forever (0) or panic slicing
// the permutation (negative); it now means the shared default of 32.
func TestEnclaveTrainerNonPositiveBatchReturns(t *testing.T) {
	for _, batch := range []int{0, -1} {
		tr, train := trainerFixture(t)
		done := make(chan []float64, 1)
		go func() {
			losses, err := tr.TrainEpochs(train.X, train.Y, 1, batch, 1)
			if err != nil {
				t.Error(err)
			}
			done <- losses
		}()
		select {
		case losses := <-done:
			if len(losses) != 1 || math.IsNaN(losses[0]) || math.IsInf(losses[0], 0) {
				t.Fatalf("batch %d: losses %v, want one finite epoch loss", batch, losses)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("batch %d: TrainEpochs did not return", batch)
		}
	}
}

// The grads hook of the shared trainer runs before the update: what lands in
// the enclave accumulator is the gradient at the pre-step weights, equal to
// the gradient of a hand-run pass over an identical model.
func TestEnclaveTrainerAccumulatesPreUpdateGradient(t *testing.T) {
	tr, train := trainerFixture(t)
	bx, by, err := models.Batch(train.X, train.Y, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	ref := models.NewViT(models.SmallViT("vit-enclave-train", 4, 8, 4), tensor.NewRNG(1))
	ref.SetTraining(true)
	g := autograd.NewGraph()
	_, logits := ref.Forward(g, g.Input(bx, "x"))
	loss, _ := g.CrossEntropy(logits, by, autograd.ReduceMean)
	g.Backward(loss)

	if _, err := tr.Step(bx, by); err != nil {
		t.Fatal(err)
	}
	hidden, err := tr.ExportHidden()
	if err != nil {
		t.Fatal(err)
	}
	shielded := ref.ShieldedParams()
	if len(hidden) != len(shielded) {
		t.Fatalf("exported %d gradients, want %d", len(hidden), len(shielded))
	}
	for _, p := range shielded {
		if got := hidden[p.Name]; got == nil || !got.AllClose(p.Grad, 0) {
			t.Fatalf("accumulated %s is not the pre-update gradient", p.Name)
		}
	}
}
