package models

import (
	"testing"

	"pelta/internal/autograd"
	"pelta/internal/tensor"
)

// pooledModels returns small instances of every architecture family, built
// twice from the same seed so the pooled and heap passes see identical
// weights through shared parameters.
func pooledModels(t *testing.T) []Model {
	t.Helper()
	rng := tensor.NewRNG(77)
	vit := NewViT(SmallViT("pool-vit", 7, 16, 4), rng)
	bit := NewBiT(BiTConfig{
		Name: "pool-bit", InputC: 3, InputHW: 16, StemK: 3, StemStride: 1,
		StageBlocks: []int{1, 1}, BaseWidth: 8, WidthFactor: 1, Groups: 4, Classes: 7,
	}, rng)
	rn := NewResNet(ResNetConfig{
		Name: "pool-rn", InputC: 3, InputHW: 16,
		Widths: [3]int{4, 8, 8}, BlocksPerStep: 1, Classes: 7,
	}, rng)
	return []Model{vit, bit, rn}
}

// runPass records one forward+backward on g and returns the logits and the
// input gradient (cloned, so arena recycling cannot disturb the comparison).
func runPass(m Model, g *autograd.Graph, x *tensor.Tensor, y []int) (*tensor.Tensor, *tensor.Tensor) {
	in := g.Input(x, "x")
	_, logits := m.Forward(g, in)
	loss, _ := g.CrossEntropy(logits, y, autograd.ReduceSum)
	g.Backward(loss)
	return logits.Data.Clone(), in.Grad.Clone()
}

// TestPooledPassBitIdenticalToHeapPass is the core property of the pooled
// execution engine: borrowing every tensor from a Pool and recycling the
// arena between passes must not change a single bit of the forward results
// or the input gradients, for every model family, across repeated arena
// reuse (the steady state iterative attacks live in).
func TestPooledPassBitIdenticalToHeapPass(t *testing.T) {
	rng := tensor.NewRNG(123)
	for _, m := range pooledModels(t) {
		x := rng.Uniform(0, 1, 2, 3, 16, 16)
		y := []int{1, 4}

		heapLogits, heapGrad := runPass(m, autograd.NewGraph(), x, y)
		clearGrads(m)

		pool := tensor.NewPool()
		pg := autograd.NewGraphWithPool(pool)
		for pass := 0; pass < 3; pass++ {
			pg.Release()
			logits, grad := runPass(m, pg, x, y)
			clearGrads(m)
			if !logits.AllClose(heapLogits, 0) {
				t.Fatalf("%s pass %d: pooled logits differ from heap logits", m.Name(), pass)
			}
			if !grad.AllClose(heapGrad, 0) {
				t.Fatalf("%s pass %d: pooled ∇x differs from heap ∇x", m.Name(), pass)
			}
		}
		// After warmup the arena must run entirely off recycled buffers.
		// Only this pass runs on one kernel worker: parallelFor shards
		// borrow their scratch concurrently or back to back depending on
		// the schedule, so with several workers a pass can peak a size
		// class a few buffers above every warm-up pass. Scratch shapes do
		// not depend on the sharding, so a pool warmed at the default
		// worker count must cover the one-worker pass exactly.
		restore := tensor.SetKernelWorkers(1)
		before := pool.Stats()
		pg.Release()
		runPass(m, pg, x, y)
		clearGrads(m)
		after := pool.Stats()
		tensor.SetKernelWorkers(restore)
		if misses := after.Misses - before.Misses; misses != 0 {
			t.Fatalf("%s: steady-state pass allocated %d fresh buffers (of %d gets)",
				m.Name(), misses, after.Gets-before.Gets)
		}
	}
}

// TestPooledParamGradsMatchHeap checks the training path: with parameter
// tracking on, pooled passes accumulate exactly the same parameter
// gradients as heap passes.
func TestPooledParamGradsMatchHeap(t *testing.T) {
	rng := tensor.NewRNG(321)
	for _, m := range pooledModels(t) {
		x := rng.Uniform(0, 1, 2, 3, 16, 16)
		y := []int{0, 2}

		runPass(m, autograd.NewGraph(), x, y)
		want := make(map[string]*tensor.Tensor)
		for _, p := range m.Params() {
			want[p.Name] = p.Grad.Clone()
		}
		clearGrads(m)

		pg := autograd.NewGraphWithPool(tensor.NewPool())
		runPass(m, pg, x, y)
		for _, p := range m.Params() {
			if !p.Grad.AllClose(want[p.Name], 0) {
				t.Fatalf("%s: pooled grad of %s differs from heap grad", m.Name(), p.Name)
			}
		}
		clearGrads(m)
	}
}

// TestSkipParamGradsLeavesParamsUntouched checks the attack-oracle mode:
// with tracking off, a backward pass must not move any parameter gradient,
// while the input gradient stays bit-identical.
func TestSkipParamGradsLeavesParamsUntouched(t *testing.T) {
	rng := tensor.NewRNG(55)
	for _, m := range pooledModels(t) {
		x := rng.Uniform(0, 1, 2, 3, 16, 16)
		y := []int{3, 5}

		_, heapGrad := runPass(m, autograd.NewGraph(), x, y)
		clearGrads(m)

		pg := autograd.NewGraphWithPool(tensor.NewPool())
		pg.SetTrackParamGrads(false)
		_, grad := runPass(m, pg, x, y)
		if !grad.AllClose(heapGrad, 0) {
			t.Fatalf("%s: ∇x with param tracking off differs", m.Name())
		}
		for _, p := range m.Params() {
			for _, v := range p.Grad.Data() {
				if v != 0 {
					t.Fatalf("%s: parameter %s accumulated gradient despite tracking off", m.Name(), p.Name)
				}
			}
		}
	}
}

func clearGrads(m Model) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}
