package tensor

import (
	"fmt"
	"testing"
)

// Kernel-layer benchmarks: the raw hot loops under every attack iteration,
// FL round and served query. Shapes are BiT-stem-scale so the cache-blocked
// and parallel paths actually engage (the -short model zoo runs below the
// parallel threshold by design).

func benchConvOperands(b *testing.B) (p *Pool, x, w, bias *Tensor, stride, pad int) {
	b.Helper()
	rng := NewRNG(42)
	p = NewPool()
	x = rng.Uniform(-1, 1, 8, 16, 32, 32) // [B,C,H,W]
	w = rng.Uniform(-1, 1, 32, 16, 3, 3)  // [O,C,kh,kw]
	bias = rng.Uniform(-1, 1, 32)
	return p, x, w, bias, 1, 1
}

// BenchmarkConv2dForward times the batched pooled convolution forward.
func BenchmarkConv2dForward(b *testing.B) {
	p, x, w, bias, stride, pad := benchConvOperands(b)
	oh := ConvOut(x.Dim(2), w.Dim(2), stride, pad)
	ow := ConvOut(x.Dim(3), w.Dim(3), stride, pad)
	dst := New(x.Dim(0), w.Dim(0), oh, ow)
	Conv2dInto(p, dst, x, w, bias, stride, pad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2dInto(p, dst, x, w, bias, stride, pad)
	}
}

// BenchmarkConv2dBackward times the convolution backward kernel with weight
// and bias gradients on (the training path; attack oracles skip gw/gb).
func BenchmarkConv2dBackward(b *testing.B) {
	p, x, w, _, stride, pad := benchConvOperands(b)
	oh := ConvOut(x.Dim(2), w.Dim(2), stride, pad)
	ow := ConvOut(x.Dim(3), w.Dim(3), stride, pad)
	rng := NewRNG(43)
	gy := rng.Uniform(-1, 1, x.Dim(0), w.Dim(0), oh, ow)
	gx := New(x.Shape()...)
	gw := New(w.Shape()...)
	gb := New(w.Dim(0))
	Conv2dBackwardInto(p, gx, gw, gb, x, w, gy, stride, pad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb.Zero()
		Conv2dBackwardInto(p, gx, gw, gb, x, w, gy, stride, pad)
	}
}

// BenchmarkConv2dBackwardInputOnly times the attack-oracle variant: ∇x only,
// no weight or bias gradient products.
func BenchmarkConv2dBackwardInputOnly(b *testing.B) {
	p, x, w, _, stride, pad := benchConvOperands(b)
	oh := ConvOut(x.Dim(2), w.Dim(2), stride, pad)
	ow := ConvOut(x.Dim(3), w.Dim(3), stride, pad)
	rng := NewRNG(44)
	gy := rng.Uniform(-1, 1, x.Dim(0), w.Dim(0), oh, ow)
	gx := New(x.Shape()...)
	Conv2dBackwardInto(p, gx, nil, nil, x, w, gy, stride, pad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2dBackwardInto(p, gx, nil, nil, x, w, gy, stride, pad)
	}
}

// BenchmarkConvTranspose2d times the §V-B adjoint upsampling kernel.
func BenchmarkConvTranspose2d(b *testing.B) {
	rng := NewRNG(45)
	x := rng.Uniform(-1, 1, 8, 16, 16, 16)
	w := rng.Uniform(-1, 1, 16, 3, 4, 4) // [C,O,kh,kw]
	out := New(8, 3, 34, 34)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvTranspose2dInto(nil, out, x, w, 2, 0)
	}
}

func benchAttentionOperands(b *testing.B) (q, k, v *Tensor, scale float32) {
	b.Helper()
	// [B*heads, T, dh] at ViT scale: batch 4 × 4 heads, 65 tokens, 48-dim heads.
	rng := NewRNG(47)
	q = rng.Uniform(-1, 1, 16, 65, 48)
	k = rng.Uniform(-1, 1, 16, 65, 48)
	v = rng.Uniform(-1, 1, 16, 65, 48)
	return q, k, v, float32(1.0 / 8)
}

// BenchmarkAttentionFused times the strip-blocked fused attention kernel
// (QKᵀ → scale → softmax → @V without materializing the [G,T,T] scores).
func BenchmarkAttentionFused(b *testing.B) {
	q, k, v, scale := benchAttentionOperands(b)
	p := NewPool()
	dst := New(q.Shape()...)
	FusedAttentionInto(p, dst, q, k, v, scale)
	b.Run("Forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FusedAttentionInto(p, dst, q, k, v, scale)
		}
	})
	b.Run("Backward", func(b *testing.B) {
		rng := NewRNG(48)
		gy := rng.Uniform(-1, 1, q.Shape()...)
		gq, gk, gv := New(q.Shape()...), New(q.Shape()...), New(q.Shape()...)
		FusedAttentionBackwardInto(p, gq, gk, gv, q, k, v, gy, scale)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gk.Zero()
			gv.Zero()
			FusedAttentionBackwardInto(p, gq, gk, gv, q, k, v, gy, scale)
		}
	})
}

// BenchmarkAttentionMaterializing times the pre-fusion forward chain
// (kᵀ, BMM scores, scale, softmax, BMM context) over preallocated buffers —
// the memory-traffic baseline the fused kernel replaces.
func BenchmarkAttentionMaterializing(b *testing.B) {
	q, k, v, scale := benchAttentionOperands(b)
	g, t, dh := q.Dim(0), q.Dim(1), q.Dim(2)
	kT := New(g, dh, t)
	scores := New(g, t, t)
	dst := New(g, t, dh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < g; s++ {
			transposeScatterBias(kT.Data()[s*t*dh:(s+1)*t*dh], k.Data()[s*t*dh:(s+1)*t*dh], nil, dh, t)
		}
		BMMInto(scores, q, kT)
		ScaleInto(scores, scores, scale)
		SoftmaxRowsInto(scores, scores)
		BMMInto(dst, scores, v)
	}
}

// BenchmarkMatMul times the 2-D product at a paper-scale-ish shape where the
// cache-blocked path engages.
func BenchmarkMatMul(b *testing.B) {
	for _, sz := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", sz), func(b *testing.B) {
			rng := NewRNG(46)
			a := rng.Uniform(-1, 1, sz, sz)
			bb := rng.Uniform(-1, 1, sz, sz)
			dst := New(sz, sz)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bb)
			}
		})
	}
}
