package models

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"pelta/internal/tensor"
)

// paramsHash is an FNV-1a hash over the exact float32 bit patterns of every
// parameter of m, in Params() order.
func paramsHash(m Model) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range m.Params() {
		for _, v := range p.Data.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// The hashes below were taken at the commit where Train still owned its own
// epoch loop and optimizer; Train over the shared Trainer must reproduce them
// bit for bit. 100 samples over batch 16 leaves a tail batch of 4, and the
// ResNet's BatchNorm makes the result depend on SetTraining. The BiT row
// moved on purpose: WSConv2d standardized its kernel with a float64
// division, (w−m)/σ, and gave 484723598576120941; it now runs the shared
// float32 (w−m)·(1/σ) normalization, a last-ulp difference per weight.
func TestTrainGoldenBits(t *testing.T) {
	d := smallDataset(t, 4, 8, 100)
	for _, tc := range []struct {
		m      Model
		epochs int
		want   uint64
	}{
		{NewViT(SmallViT("vit-golden", 4, 8, 4), tensor.NewRNG(3)), 3, 13019979802481687236},
		{NewResNet(SmallResNet("rn-golden", 4, 8), tensor.NewRNG(4)), 2, 8560635914927600733},
		{NewBiT(SmallBiT("bit-golden", 4, 8), tensor.NewRNG(8)), 2, 6296873776146735565},
	} {
		losses, err := Train(tc.m, d.X, d.Y, TrainConfig{Epochs: tc.epochs, BatchSize: 16, LR: 2e-3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(losses) != tc.epochs {
			t.Fatalf("%s: %d epoch losses, want %d", tc.m.Name(), len(losses), tc.epochs)
		}
		if got := paramsHash(tc.m); got != tc.want {
			t.Fatalf("%s: parameter hash %d, want %d — Train's arithmetic or batch schedule changed", tc.m.Name(), got, tc.want)
		}
	}
}

// A trainer over a parameter subset moves that subset only, and no gradient
// — moved or frozen — survives Step.
func TestTrainerSubsetFreezesTheRest(t *testing.T) {
	d := smallDataset(t, 4, 8, 16)
	v := NewViT(SmallViT("vit-subset", 4, 8, 4), tensor.NewRNG(6))
	moved := make(map[string]bool)
	for _, p := range v.ShieldedParams() {
		moved[p.Name] = true
	}
	before := make(map[string]*tensor.Tensor)
	for _, p := range v.Params() {
		before[p.Name] = p.Data.Clone()
		p.Grad.Fill(1) // stale gradients, as an attack oracle leaves them
	}
	tr := NewTrainer(v, v.ShieldedParams(), 2e-3)
	if _, err := tr.Step(d.X, d.Y, nil, nil); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, p := range v.Params() {
		same := p.Data.AllClose(before[p.Name], 0)
		if !moved[p.Name] && !same {
			t.Fatalf("frozen parameter %s moved", p.Name)
		}
		if moved[p.Name] && !same {
			changed++
		}
		if tensor.NormL2(p.Grad) != 0 {
			t.Fatalf("gradient of %s is not zero after Step", p.Name)
		}
	}
	if changed == 0 {
		t.Fatal("no trained parameter moved")
	}
}

// Fit reports bad input and failing steps as errors and, like Train always
// did, reads a batch size ≤ 0 as 32.
func TestFitErrorsAndDefaultBatch(t *testing.T) {
	d := smallDataset(t, 4, 8, 40)
	v := NewViT(SmallViT("vit-fit", 4, 8, 4), tensor.NewRNG(7))
	if _, err := Train(v, d.X, d.Y[:39], TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("label count mismatch must fail")
	}
	var sizes []int
	boom := errors.New("boom")
	_, err := NewTrainer(v, nil, 2e-3).Fit(d.X, d.Y, TrainConfig{Epochs: 1, BatchSize: -3}, func(x *tensor.Tensor, y []int) (float64, error) {
		sizes = append(sizes, x.Dim(0))
		if len(sizes) == 2 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the step's error", err)
	}
	if len(sizes) != 2 || sizes[0] != 32 || sizes[1] != 8 {
		t.Fatalf("batch sizes %v, want [32 8]", sizes)
	}
}

// Fit, Reset, Fit on one trainer moves the model to the same bits as a
// fresh trainer for each Fit — what models.Train does — even when an
// attack oracle left gradients in the parameters between the two.
func TestTrainerResetMatchesFresh(t *testing.T) {
	d := smallDataset(t, 4, 8, 40)
	cfg := TrainConfig{Epochs: 2, BatchSize: 16, LR: 2e-3, Seed: 5}
	reused := NewViT(SmallViT("vit-reset", 4, 8, 4), tensor.NewRNG(9))
	fresh := NewViT(SmallViT("vit-reset", 4, 8, 4), tensor.NewRNG(9))

	tr := NewTrainer(reused, nil, cfg.LR)
	for round := 0; round < 2; round++ {
		if round > 0 {
			for _, p := range reused.Params() {
				p.Grad.Fill(1)
			}
			tr.Reset()
		}
		cfg.Seed = 5 + int64(round)
		if _, err := tr.Fit(d.X, d.Y, cfg, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := Train(fresh, d.X, d.Y, cfg); err != nil {
			t.Fatal(err)
		}
		if got, want := paramsHash(reused), paramsHash(fresh); got != want {
			t.Fatalf("round %d: reset trainer hash %d, fresh trainer %d", round, got, want)
		}
	}
}

// gather copies rows without building per-sample views: Batch allocates
// its buffers and nothing per sample.
func TestBatchAllocs(t *testing.T) {
	d := smallDataset(t, 4, 8, 16)
	idx := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	bx, by, err := Batch(d.X, d.Y, idx)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range idx {
		if !bx.Slice(i).AllClose(d.X.Slice(j), 0) || by[i] != d.Y[j] {
			t.Fatalf("batch row %d is not sample %d", i, j)
		}
	}
	one := testing.AllocsPerRun(50, func() { _, _, _ = Batch(d.X, d.Y, idx[:1]) })
	all := testing.AllocsPerRun(50, func() { _, _, _ = Batch(d.X, d.Y, idx) })
	if all != one {
		t.Fatalf("Batch allocates %.0f times for %d samples and %.0f for one", all, len(idx), one)
	}
}
