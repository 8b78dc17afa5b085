package tensor

import "fmt"

// Fused scaled-dot-product attention: softmax(q@kᵀ·scale)@v computed slice
// by slice without ever materializing the full [G,T,T] score tensor. Each
// (sample, head) slice is processed in attnRowBlock-row strips — scores,
// scale, softmax and the value product for one strip all happen while the
// strip is cache-resident — and the backward pass recomputes the strip's
// probabilities instead of loading a stored attention map.
//
// Numerics are pinned to the materializing chain
// (BMM → Scale → SoftmaxLastDim → BMM) bit-for-bit: every score is the same
// sequential dot over dh, the softmax uses the same row-max/float64-sum
// routine, and the backward reductions keep the same ascending-row
// accumulation and saxpy2 pairing as the unfused kernels. attnRowBlock must
// stay EVEN so the pairing of strip-local rows coincides with the full-T
// pairing. Slices are sharded over the worker pool; inside a slice
// everything is serial, so results are bit-identical for every worker
// count.

// attnRowBlock is the number of query rows processed per strip (even, see
// above).
const attnRowBlock = 32

func checkFusedAttention(op string, dst, q, k, v *Tensor) (G, T, dh int) {
	qs := q.shape
	if len(qs) != 3 {
		panic(fmt.Sprintf("tensor: %s requires [G,T,dh] operands, got %v", op, qs))
	}
	if !q.SameShape(k) || !q.SameShape(v) {
		panic(fmt.Sprintf("tensor: %s operand shapes %v/%v/%v differ", op, qs, k.shape, v.shape))
	}
	if len(dst.data) != len(q.data) {
		panic(fmt.Sprintf("tensor: %s destination %v incompatible with %v", op, dst.shape, qs))
	}
	return qs[0], qs[1], qs[2]
}

// FusedAttentionInto stores softmax(q@kᵀ·scale)@v into dst for operands
// shaped [G,T,dh], overwriting it. Strip scratch is borrowed from p when
// non-nil.
func FusedAttentionInto(p *Pool, dst, q, k, v *Tensor, scale float32) {
	G, T, dh := checkFusedAttention("FusedAttentionInto", dst, q, k, v)
	hk, t0 := kernelStart()
	parallelFor(G, 2*G*T*T*dh, func(g0, g1 int) {
		srow := scratch(p, attnRowBlock, T)
		for g := g0; g < g1; g++ {
			sl := g * T * dh
			qg, kg, vg := q.data[sl:sl+T*dh], k.data[sl:sl+T*dh], v.data[sl:sl+T*dh]
			og := dst.data[sl : sl+T*dh]
			for r0 := 0; r0 < T; r0 += attnRowBlock {
				rb := T - r0
				if rb > attnRowBlock {
					rb = attnRowBlock
				}
				s := srow.data[:rb*T]
				dotRows(s, qg[r0*dh:(r0+rb)*dh], kg, rb, dh, T)
				for i := range s {
					s[i] = scale * s[i]
				}
				softmaxRows(s, s, rb, T)
				matMulRows(og[r0*dh:], s, vg, 0, rb, T, dh)
			}
		}
		unscratch(p, srow)
	})
	kernelEnd(hk, t0, KernelAttention)
}

// FusedAttentionBackwardInto computes the gradients of FusedAttentionInto
// given upstream gy [G,T,dh]. gq is overwritten; gk and gv must arrive
// holding their accumulation base (typically zeros) and are accumulated
// into. The strip probabilities are recomputed from q and k — exactly the
// forward arithmetic — so no [G,T,T] attention tensor is ever stored.
func FusedAttentionBackwardInto(p *Pool, gq, gk, gv, q, k, v, gy *Tensor, scale float32) {
	G, T, dh := checkFusedAttention("FusedAttentionBackwardInto", gy, q, k, v)
	if len(gq.data) != len(q.data) || len(gk.data) != len(q.data) || len(gv.data) != len(q.data) {
		panic(fmt.Sprintf("tensor: FusedAttentionBackwardInto gradient shapes %v/%v/%v incompatible with %v",
			gq.shape, gk.shape, gv.shape, q.shape))
	}
	hk, t0 := kernelStart()
	parallelFor(G, 5*G*T*T*dh, func(g0, g1 int) {
		pblk := scratch(p, attnRowBlock, T)
		gblk := scratch(p, attnRowBlock, T)
		for g := g0; g < g1; g++ {
			sl := g * T * dh
			qg, kg, vg := q.data[sl:sl+T*dh], k.data[sl:sl+T*dh], v.data[sl:sl+T*dh]
			gyg := gy.data[sl : sl+T*dh]
			gqg, gkg, gvg := gq.data[sl:sl+T*dh], gk.data[sl:sl+T*dh], gv.data[sl:sl+T*dh]
			for r0 := 0; r0 < T; r0 += attnRowBlock {
				rb := T - r0
				if rb > attnRowBlock {
					rb = attnRowBlock
				}
				P := pblk.data[:rb*T]
				gA := gblk.data[:rb*T]
				qBlk, gyBlk := qg[r0*dh:(r0+rb)*dh], gyg[r0*dh:(r0+rb)*dh]
				// Recompute this strip's probabilities with the forward
				// arithmetic.
				dotRows(P, qBlk, kg, rb, dh, T)
				for i := range P {
					P[i] = scale * P[i]
				}
				softmaxRows(P, P, rb, T)
				// ∂/∂attn and ∂/∂v of the attn@v product.
				dotRows(gA, gyBlk, vg, rb, dh, T)
				transAOuter(gvg, P, gyBlk, T, rb, dh)
				// Softmax backward per row (float32 row dot, as the softmax
				// vertex computes it), then the Scale-vertex backward as its
				// own alpha pass.
				for i := 0; i < rb; i++ {
					row := gA[i*T : (i+1)*T]
					prow := P[i*T : (i+1)*T]
					var dot float32
					for c := 0; c < T; c++ {
						dot += row[c] * prow[c]
					}
					for c := 0; c < T; c++ {
						row[c] = prow[c] * (row[c] - dot)
					}
					for c := 0; c < T; c++ {
						row[c] = scale * row[c]
					}
				}
				// ∂/∂q rows of this strip, and the cross-strip ∂/∂k sum.
				matMulRows(gqg[r0*dh:], gA, kg, 0, rb, T, dh)
				transAOuter(gkg, gA, qBlk, T, rb, dh)
			}
		}
		unscratch(p, pblk, gblk)
	})
	kernelEnd(hk, t0, KernelAttention)
}
