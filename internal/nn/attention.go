package nn

import (
	"math"

	"pelta/internal/autograd"
	"pelta/internal/tensor"
)

// MultiHeadSelfAttention implements the transformer self-attention block.
// By default it runs the fused strip kernel (tensor.FusedAttentionInto),
// which never materializes the [B*heads, T, T] score tensor. When the
// pass's consumer has called g.RequestRecorded(autograd.RecordAttention) —
// the W^(att) matrices consumed by the Self-Attention Gradient Attack
// (Eq. 4) — the layer falls back to the materializing chain and records the
// softmax probability vertex into the graph; both paths produce identical
// bits. Keeping the record graph-scoped (instead of on the layer) lets
// concurrent passes share the same weights race-free, which the parallel
// batched oracle relies on.
type MultiHeadSelfAttention struct {
	Heads int
	Dim   int

	Wq, Wk, Wv, Wo *Linear
}

// NewMHSA creates a multi-head self-attention layer for dim features.
func NewMHSA(name string, dim, heads int, rng *tensor.RNG) *MultiHeadSelfAttention {
	if dim%heads != 0 {
		panic("nn: attention dim must be divisible by heads")
	}
	return &MultiHeadSelfAttention{
		Heads: heads,
		Dim:   dim,
		Wq:    NewLinear(name+".q", dim, dim, true, rng),
		Wk:    NewLinear(name+".k", dim, dim, true, rng),
		Wv:    NewLinear(name+".v", dim, dim, true, rng),
		Wo:    NewLinear(name+".out", dim, dim, true, rng),
	}
}

// Forward applies attention to a [B,T,D] vertex.
func (m *MultiHeadSelfAttention) Forward(g *autograd.Graph, x *autograd.Value) *autograd.Value {
	xs := x.Data.Shape()
	b, t, d := xs[0], xs[1], xs[2]
	h := m.Heads
	dh := d / h

	q := splitHeads(g, m.Wq.Forward(g, x), b, t, h, dh)
	k := splitHeads(g, m.Wk.Forward(g, x), b, t, h, dh)
	v := splitHeads(g, m.Wv.Forward(g, x), b, t, h, dh)

	scale := float32(1 / math.Sqrt(float64(dh)))
	var ctx *autograd.Value
	if g.WantsRecorded(autograd.RecordAttention) {
		// Recording path: materialize the [B*h,T,T] probability vertex the
		// SAGA rollout consumes. Bit-identical to the fused kernel below.
		kT := g.Permute(k, 0, 2, 1)            // [B*h, dh, T]
		scores := g.Scale(g.BMM(q, kT), scale) // [B*h, T, T]
		attn := g.SoftmaxLastDim(scores)
		g.Record(autograd.RecordAttention, attn)
		ctx = g.BMM(attn, v) // [B*h, T, dh]
	} else {
		ctx = g.FusedAttention(q, k, v, scale) // [B*h, T, dh]
	}
	// [B*h,T,dh] -> [B,h,T,dh] -> [B,T,h,dh] -> [B,T,D]
	merged := g.Reshape(g.Permute(g.Reshape(ctx, b, h, t, dh), 0, 2, 1, 3), b, t, d)
	return m.Wo.Forward(g, merged)
}

// splitHeads lays a [B,T,D] projection out per head:
// [B,T,D] -> [B,T,h,dh] -> [B,h,T,dh] -> [B*h,T,dh].
func splitHeads(g *autograd.Graph, v *autograd.Value, b, t, h, dh int) *autograd.Value {
	return g.Reshape(g.Permute(g.Reshape(v, b, t, h, dh), 0, 2, 1, 3), b*h, t, dh)
}

// Params implements Module.
func (m *MultiHeadSelfAttention) Params() []*autograd.Param {
	return CollectParams(m.Wq, m.Wk, m.Wv, m.Wo)
}

// EncoderBlock is a pre-norm transformer encoder block:
// x + MHSA(LN(x)) followed by x + MLP(LN(x)).
type EncoderBlock struct {
	Norm1 *LayerNorm
	Attn  *MultiHeadSelfAttention
	Norm2 *LayerNorm
	FC1   *Linear
	FC2   *Linear
}

// NewEncoderBlock creates a ViT encoder block with an MLP of mlpDim.
func NewEncoderBlock(name string, dim, heads, mlpDim int, rng *tensor.RNG) *EncoderBlock {
	return &EncoderBlock{
		Norm1: NewLayerNorm(name+".ln1", dim),
		Attn:  NewMHSA(name+".attn", dim, heads, rng),
		Norm2: NewLayerNorm(name+".ln2", dim),
		FC1:   NewLinear(name+".mlp1", dim, mlpDim, true, rng),
		FC2:   NewLinear(name+".mlp2", mlpDim, dim, true, rng),
	}
}

// Forward applies the block to [B,T,D].
func (e *EncoderBlock) Forward(g *autograd.Graph, x *autograd.Value) *autograd.Value {
	y := g.Add(x, e.Attn.Forward(g, e.Norm1.Forward(g, x)))
	mlp := e.FC2.Forward(g, g.GELU(e.FC1.Forward(g, e.Norm2.Forward(g, y))))
	return g.Add(y, mlp)
}

// Params implements Module.
func (e *EncoderBlock) Params() []*autograd.Param {
	return CollectParams(e.Norm1, e.Attn, e.Norm2, e.FC1, e.FC2)
}
