package autograd

import (
	"fmt"

	"pelta/internal/tensor"
)

// FusedAttention computes softmax(q@kᵀ·scale)@v over [G,T,dh] vertices (G =
// batch·heads) through the fused strip kernel: the [G,T,T] score and
// probability tensors are never materialized, on the forward or the
// backward pass (which recomputes each strip's probabilities from q and k).
// The kernel is numerically pinned to the unfused BMM → Scale →
// SoftmaxLastDim → BMM chain, so swapping between the two paths — e.g. when
// a consumer requests recorded attention maps — changes no output bit.
func (g *Graph) FusedAttention(q, k, v *Value, scale float32) *Value {
	qs := q.Data.Shape()
	if len(qs) != 3 || !q.Data.SameShape(k.Data) || !q.Data.SameShape(v.Data) {
		panic(fmt.Sprintf("autograd: FusedAttention shapes %v/%v/%v invalid",
			qs, k.Data.Shape(), v.Data.Shape()))
	}
	out := g.node("fusedattention", g.alloc(qs...), q, k, v)
	tensor.FusedAttentionInto(g.pool, out.Data, q.Data, k.Data, v.Data, scale)
	if g.inference {
		return out
	}
	out.backward = func() {
		// q, k and v are interior vertices of the attention block, so all
		// three gradients are always live; gq is fully overwritten while
		// gk/gv are accumulated into a zero base.
		gq := g.alloc(qs...)
		gk := g.allocZero(qs...)
		gv := g.allocZero(qs...)
		tensor.FusedAttentionBackwardInto(g.pool, gq, gk, gv, q.Data, k.Data, v.Data, out.Grad, scale)
		g.accum(q, gq)
		g.accum(k, gk)
		g.accum(v, gv)
		g.free(gq)
		g.free(gk)
		g.free(gv)
	}
	return out
}
