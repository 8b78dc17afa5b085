package autograd

import (
	"fmt"
	"math"

	"pelta/internal/tensor"
)

// Reduction selects how per-sample losses are combined.
type Reduction int

const (
	// ReduceMean averages per-sample losses (training default).
	ReduceMean Reduction = iota
	// ReduceSum sums per-sample losses. Attacks use this so per-sample
	// input gradients are not scaled by 1/B.
	ReduceSum
)

// CrossEntropy computes the softmax cross-entropy of logits [B,C] against
// integer labels. It also exposes the per-sample losses and probabilities of
// the forward pass for evaluation code.
func (g *Graph) CrossEntropy(logits *Value, labels []int, red Reduction) (*Value, *CrossEntropyInfo) {
	ls := logits.Data.Shape()
	if len(ls) != 2 || ls[0] != len(labels) {
		panic(fmt.Sprintf("autograd: CrossEntropy logits %v vs %d labels", ls, len(labels)))
	}
	b, c := ls[0], ls[1]
	probs := g.alloc(b, c)
	tensor.SoftmaxRowsInto(probs, logits.Data)
	per := make([]float64, b)
	total := 0.0
	for i, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("autograd: label %d out of range [0,%d)", y, c))
		}
		p := float64(probs.At(i, y))
		if p < 1e-12 {
			p = 1e-12
		}
		per[i] = -math.Log(p)
		total += per[i]
	}
	if red == ReduceMean {
		total /= float64(b)
	}
	out := g.node("cross_entropy", g.scalar(float32(total)), logits)
	info := &CrossEntropyInfo{PerSample: per, Probs: probs}
	if g.inference {
		return out, info
	}
	out.backward = func() {
		scale := out.Grad.Data()[0]
		if red == ReduceMean {
			scale /= float32(b)
		}
		gl := g.alloc(b, c)
		gl.CopyFrom(probs)
		for i, y := range labels {
			gl.Data()[i*c+y] -= 1
		}
		tensor.ScaleIn(gl, scale)
		g.accum(logits, gl)
		g.free(gl)
	}
	return out, info
}

// CrossEntropyInfo carries forward-pass byproducts of CrossEntropy.
//
// On a pooled graph, Probs borrows arena memory and is only valid until the
// graph's Release; callers that need it longer must Clone it. PerSample is
// always heap-allocated and safe to retain.
type CrossEntropyInfo struct {
	// PerSample holds the loss of each sample.
	PerSample []float64
	// Probs holds the softmax probabilities [B,C].
	Probs *tensor.Tensor
}

// CWMargin computes the Carlini & Wagner margin term per sample:
// max(Z_y − max_{i≠y} Z_i, −κ), summed over the batch. Minimizing it drives
// each sample across the decision boundary with confidence κ.
func (g *Graph) CWMargin(logits *Value, labels []int, kappa float32) *Value {
	ls := logits.Data.Shape()
	b, c := ls[0], ls[1]
	if b != len(labels) {
		panic(fmt.Sprintf("autograd: CWMargin logits %v vs %d labels", ls, len(labels)))
	}
	// For each sample record whether the margin is active and which class
	// is the runner-up, for the backward pass.
	active := make([]bool, b)
	best := make([]int, b)
	total := 0.0
	for i, y := range labels {
		row := logits.Data.Row(i).Data()
		bi, bv := -1, float32(math.Inf(-1))
		for j, v := range row {
			if j == y {
				continue
			}
			if v > bv {
				bi, bv = j, v
			}
		}
		m := row[y] - bv
		best[i] = bi
		if m > -kappa {
			active[i] = true
			total += float64(m)
		} else {
			total += float64(-kappa)
		}
	}
	out := g.node("cw_margin", g.scalar(float32(total)), logits)
	if g.inference {
		return out
	}
	out.backward = func() {
		scale := out.Grad.Data()[0]
		gl := g.allocZero(ls...)
		for i, y := range labels {
			if !active[i] {
				continue
			}
			gl.Data()[i*c+y] += scale
			gl.Data()[i*c+best[i]] -= scale
		}
		g.accum(logits, gl)
		g.free(gl)
	}
	return out
}

// SqDistSum returns Σ (x−ref)² summed over everything, with ref a constant
// (the original image in the C&W objective).
func (g *Graph) SqDistSum(x *Value, ref *tensor.Tensor) *Value {
	if x.Data.Len() != ref.Len() {
		panic(fmt.Sprintf("autograd: SqDistSum size mismatch %v vs %v", x.Data.Shape(), ref.Shape()))
	}
	diff := g.alloc(x.Data.Shape()...)
	tensor.SubInto(diff, x.Data, ref)
	out := g.node("sqdist", g.scalar(float32(tensor.Dot(diff, diff))), x)
	if g.inference {
		g.free(diff)
		return out
	}
	out.backward = func() {
		gx := g.alloc(diff.Shape()...)
		tensor.ScaleInto(gx, diff, 2*out.Grad.Data()[0])
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}
