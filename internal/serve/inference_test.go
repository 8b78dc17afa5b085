package serve

import (
	"testing"

	"pelta/internal/autograd"
	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// TestInferenceIdentityClearReplica: ClearReplica runs its arena in
// inference mode; across three calls (three Release cycles) it must return
// the taped pass's logits bit for bit, for every model family, at one
// kernel worker and at several.
func TestInferenceIdentityClearReplica(t *testing.T) {
	rng := tensor.NewRNG(80)
	family := []models.Model{
		models.NewViT(models.SmallViT("inf-vit", 5, 16, 4), rng),
		models.NewMobileViT(models.SmallMobileViT("inf-mvit", 5, 16), rng),
		models.NewResNet(models.ResNetConfig{
			Name: "inf-rn", InputC: 3, InputHW: 16,
			Widths: [3]int{4, 8, 8}, BlocksPerStep: 1, Classes: 5,
		}, rng),
		models.NewBiT(models.BiTConfig{
			Name: "inf-bit", InputC: 3, InputHW: 16, StemK: 3, StemStride: 1,
			StageBlocks: []int{1, 1}, BaseWidth: 8, WidthFactor: 1, Groups: 4, Classes: 5,
		}, rng),
	}
	x := rng.Uniform(0, 1, 3, 3, 16, 16)
	for _, workers := range []int{1, 4} {
		restore := tensor.SetKernelWorkers(workers)
		for _, m := range family {
			taped := autograd.NewGraph()
			_, want := m.Forward(taped, taped.Input(x, "x"))
			rep := NewClearReplica(m)
			for pass := 0; pass < 3; pass++ {
				got, err := rep.Logits(x)
				if err != nil {
					t.Fatal(err)
				}
				if !got.AllClose(want.Data, 0) {
					t.Errorf("%s, %d workers, call %d: replica logits differ from the taped pass", m.Name(), workers, pass)
				}
			}
		}
		tensor.SetKernelWorkers(restore)
	}
}

// TestInferenceAllocPins pins what one served batch allocates below the
// scheduler, on the benchmark's ViT (bench/fixture.go: SmallViT, 10 classes,
// 16×16 input, patch 4), at one kernel worker and at two. The taped pass
// this replaced allocated a backward closure, two or three shape slices and
// a parents slice per op: measured the same way at the parent commit the
// counts were 577 for a shielded batch-1 query and 398 / 482 for a clear
// batch of 1 / 8 (5 / 5 now). The enclave crossing itself no longer
// allocates: tee seals and opens in place in a reused wire buffer and
// decodes into recycled objects, and core.Protect builds keys in a reused
// buffer (122 → 37 per shielded pass). Of the 37 left, 16 are pool misses
// for the shielded buffers, which Release never recycles on purpose; 8 are
// the key strings, shared by the enclave map and ShieldReport.Keys; 4 are
// the body closures of the attention op's kernel calls; the rest are the
// logits copy-out, the QueryResult, the report and its Keys slice, and
// VerifyScrubbed's walk. At two workers a parallel kernel call adds only
// its body closure: the dispatch record is recycled, where the cursor,
// WaitGroup and helper closures used to cost four more per call (shielded
// batch 1 76 → 45, clear batch 8 145 → 29).
func TestInferenceAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	restore := tensor.SetKernelWorkers(1)
	defer tensor.SetKernelWorkers(restore)
	m := models.NewViT(models.SmallViT("ViT-L/16", 10, 16, 4), tensor.NewRNG(1))
	x1 := tensor.NewRNG(2).Uniform(0, 1, 1, 3, 16, 16)
	x8 := tensor.NewRNG(3).Uniform(0, 1, 8, 3, 16, 16)

	sm, err := core.NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	shielded := &ShieldedReplica{SM: sm}
	clear := NewClearReplica(m)
	pins := []struct {
		name    string
		workers int
		rep     Replica
		x       *tensor.Tensor
		max     float64
	}{
		{"shielded batch 1", 1, shielded, x1, 41},
		{"clear batch 1", 1, clear, x1, 20},
		{"clear batch 8", 1, clear, x8, 20},
		{"shielded batch 1, 2 workers", 2, shielded, x1, 50},
		{"clear batch 8, 2 workers", 2, clear, x8, 32},
	}
	for _, p := range pins {
		tensor.SetKernelWorkers(p.workers)
		run := func() {
			if _, err := p.rep.Logits(p.x); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the arena
		run()
		if got := testing.AllocsPerRun(20, run); got > p.max {
			t.Errorf("%s: %.0f allocs per pass, pinned at ≤ %.0f", p.name, got, p.max)
		} else {
			t.Logf("%s: %.0f allocs per pass", p.name, got)
		}
	}
}
