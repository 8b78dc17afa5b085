package autograd

import (
	"fmt"
	"math"

	"pelta/internal/tensor"
)

// Conv2d applies a batched 2-D convolution with weight [O,C,kh,kw] and
// optional bias [O].
func (g *Graph) Conv2d(x, w, b *Value, stride, pad int) *Value {
	return g.conv2d("conv2d", x, w, b, w.Data, nil, stride, pad)
}

// WSConv2d applies a weight-standardized convolution (BiT / ResNet-v2 stem):
// the kernel is normalized to zero mean and unit variance per output channel
// before convolving. Standardization is differentiated through, so training
// updates the raw weights.
func (g *Graph) WSConv2d(x, w, b *Value, stride, pad int) *Value {
	oc := w.Data.Dim(0)
	fan := w.Data.Len() / oc
	// 1/σ per output channel is saved for backward only.
	var invStd []float32
	if !g.inference {
		invStd = g.alloc(oc).Data()
	}
	wHat := g.alloc(w.Data.Shape()...)
	normRows(wHat.Data(), nil, invStd, w.Data.Data(), fan, fan, nil, nil)
	return g.conv2d("wsconv2d", x, w, b, wHat, invStd, stride, pad)
}

// conv2d is the op behind Conv2d and WSConv2d. kernel is w itself or, for
// WSConv2d, its standardization, which the op frees and chains the weight
// gradient through (invStd is then the per-channel 1/σ).
func (g *Graph) conv2d(op string, x, w, b *Value, kernel *tensor.Tensor, invStd []float32, stride, pad int) *Value {
	var bias *tensor.Tensor
	var pb [3]*Value
	parents := append(pb[:0], x, w)
	if b != nil {
		bias = b.Data
		parents = append(parents, b)
	}
	xs, ks := x.Data.Shape(), kernel.Shape()
	oh := tensor.ConvOut(xs[2], ks[2], stride, pad)
	ow := tensor.ConvOut(xs[3], ks[3], stride, pad)
	out := g.node(op, g.alloc(xs[0], ks[0], oh, ow), parents...)
	tensor.Conv2dInto(g.pool, out.Data, x.Data, kernel, bias, stride, pad)
	standardized := kernel != w.Data
	if g.inference {
		if standardized {
			g.free(kernel)
		}
		return out
	}
	out.backward = func() {
		gx, gw, gb := g.convGrads(x, w, b, kernel, out.Grad, stride, pad)
		g.accum(x, gx)
		g.free(gx)
		if gw != nil {
			if standardized {
				// Chain through standardization in place:
				// ∇w = (∇ŵ − mean(∇ŵ) − ŵ·mean(∇ŵ⊙ŵ))/σ per output channel.
				fan := kernel.Len() / ks[0]
				normBackward(gw.Data(), gw.Data(), kernel.Data(), invStd, fan, fan, nil, nil, nil)
			}
			g.accum(w, gw)
			g.free(gw)
		}
		if gb != nil {
			g.accum(b, gb)
			g.free(gb)
		}
	}
	return out
}

// convGrads runs the convolution backward kernel with arena buffers,
// skipping the weight/bias gradients when parameter tracking is off.
func (g *Graph) convGrads(x, w, b *Value, kernel, gy *tensor.Tensor, stride, pad int) (gx, gw, gb *tensor.Tensor) {
	gx = g.alloc(x.Data.Shape()...)
	if g.needs(w) {
		gw = g.alloc(kernel.Shape()...)
	}
	if b != nil && g.needs(b) {
		gb = g.allocZero(kernel.Dim(0))
	}
	tensor.Conv2dBackwardInto(g.pool, gx, gw, gb, x.Data, kernel, gy, stride, pad)
	return gx, gw, gb
}

// Pad2d zero-pads the spatial dims of [B,C,H,W] by p on all sides.
func (g *Graph) Pad2d(x *Value, p int) *Value {
	xs := x.Data.Shape()
	out := g.node("pad2d", g.allocZero(xs[0], xs[1], xs[2]+2*p, xs[3]+2*p), x)
	tensor.Pad2dInto(out.Data, x.Data, p)
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.alloc(xs...)
		tensor.Unpad2dInto(gx, out.Grad, p)
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// MaxPool2d applies k×k max pooling with stride s.
func (g *Graph) MaxPool2d(x *Value, k, s int) *Value {
	xs := x.Data.Shape()
	oh, ow := tensor.ConvOut(xs[2], k, s, 0), tensor.ConvOut(xs[3], k, s, 0)
	pooled := g.alloc(xs[0], xs[1], oh, ow)
	// The argmax map is read by backward only.
	var idx []int
	if !g.inference {
		idx = g.allocInts(xs[0] * xs[1] * oh * ow)
	}
	tensor.MaxPool2dIdxInto(pooled, x.Data, k, s, idx)
	out := g.node("maxpool2d", pooled, x)
	if g.inference {
		return out
	}
	bs := xs[0]
	sampleLen := x.Data.Len() / bs
	outSample := pooled.Len() / bs
	out.backward = func() {
		gx := g.allocZero(xs...)
		gy := out.Grad.Data()
		for i := 0; i < bs; i++ {
			base := i * sampleLen
			for o := 0; o < outSample; o++ {
				gx.Data()[base+idx[i*outSample+o]] += gy[i*outSample+o]
			}
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// AvgPoolGlobal averages each channel plane of [B,C,H,W] to [B,C].
func (g *Graph) AvgPoolGlobal(x *Value) *Value {
	xs := x.Data.Shape()
	out := g.node("avgpool_global", g.alloc(xs[0], xs[1]), x)
	tensor.AvgPool2dGlobalInto(out.Data, x.Data)
	if g.inference {
		return out
	}
	out.backward = func() {
		b, c, h, w := xs[0], xs[1], xs[2], xs[3]
		gx := g.alloc(xs...)
		gxd, gyd := gx.Data(), out.Grad.Data()
		inv := 1 / float32(h*w)
		for i := 0; i < b; i++ {
			for ch := 0; ch < c; ch++ {
				gv := gyd[i*c+ch] * inv
				plane := gxd[i*c*h*w+ch*h*w : i*c*h*w+(ch+1)*h*w]
				for j := range plane {
					plane[j] = gv
				}
			}
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// normEps keeps every normalization's 1/σ finite on a constant row.
const normEps = 1e-5

// meanVar returns the float64 two-pass mean and variance of the n
// seg-long segments of x that start stride apart.
func meanVar(x []float32, seg, n, stride int) (m, v float64) {
	for k := 0; k < n; k++ {
		for _, e := range x[k*stride : k*stride+seg] {
			m += float64(e)
		}
	}
	cnt := float64(n * seg)
	m /= cnt
	for k := 0; k < n; k++ {
		for _, e := range x[k*stride : k*stride+seg] {
			d := float64(e) - m
			v += d * d
		}
	}
	return m, v / cnt
}

// normApply writes x̂ = (x−m)·is into xhat when it is non-nil and y = γ·x̂+β
// into y, or y = x̂ when gamma is nil. The affine channel starts at ch and
// steps every chanSpan elements.
func normApply(y, xhat, x []float32, m, is float32, gamma, beta []float32, ch, chanSpan int) {
	k := 0
	for j, v := range x {
		h := (v - m) * is
		if xhat != nil {
			xhat[j] = h
		}
		if gamma != nil {
			h = gamma[ch]*h + beta[ch]
		}
		y[j] = h
		if k++; k == chanSpan {
			k, ch = 0, ch+1
		}
	}
}

// normRows normalizes each span-long row of x by its own statistics into y
// through normApply, the affine channel wrapping every len(gamma) channels.
// It saves x̂ and 1/σ per row into xhat and invStd when they are non-nil.
func normRows(y, xhat, invStd, x []float32, span, chanSpan int, gamma, beta []float32) {
	for r, lo := 0, 0; lo < len(x); r, lo = r+1, lo+span {
		m, v := meanVar(x[lo:], span, 1, 0)
		is := float32(1 / math.Sqrt(v+normEps))
		var hrow []float32
		if xhat != nil {
			hrow = xhat[lo : lo+span]
		}
		if invStd != nil {
			invStd[r] = is
		}
		ch := r * span / chanSpan % max(len(gamma), 1)
		normApply(y[lo:lo+span], hrow, x[lo:lo+span], float32(m), is, gamma, beta, ch, chanSpan)
	}
}

// normBackward is normRows' input gradient, row by row:
// ∇x = (g − mean(g) − x̂·mean(g⊙x̂))·(1/σ) with g = γ⊙∇y, or g = ∇y when
// gamma is nil. It adds Σ∇y⊙x̂ and Σ∇y per channel into ggamma and gbeta
// when they are non-nil. gx may alias gy.
func normBackward(gx, gy, xhat, invStd []float32, span, chanSpan int, gamma []float32, ggamma, gbeta *tensor.Tensor) {
	var gg, gb []float32
	if ggamma != nil {
		gg, gb = ggamma.Data(), gbeta.Data()
	}
	for r, lo := 0, 0; lo < len(gx); r, lo = r+1, lo+span {
		ch, k := r*span/chanSpan%max(len(gamma), 1), 0
		var mg, mgh float64
		for j := lo; j < lo+span; j++ {
			dy, h := gy[j], xhat[j]
			gi := dy
			if gamma != nil {
				gi = dy * gamma[ch]
			}
			mg += float64(gi)
			mgh += float64(gi) * float64(h)
			if gg != nil {
				gg[ch] += dy * h
				gb[ch] += dy
			}
			gx[j] = gi
			if k++; k == chanSpan {
				k, ch = 0, ch+1
			}
		}
		mg /= float64(span)
		mgh /= float64(span)
		for j := lo; j < lo+span; j++ {
			gx[j] = invStd[r] * float32(float64(gx[j])-mg-float64(xhat[j])*mgh)
		}
	}
}

// affineBufs borrows zeroed ∇γ and ∇β buffers, or returns nils when neither
// parameter needs a gradient. affineGrads hands them over and frees them.
func (g *Graph) affineBufs(gamma, beta *Value) (ggamma, gbeta *tensor.Tensor) {
	if !g.needs(gamma) && !g.needs(beta) {
		return nil, nil
	}
	return g.allocZero(gamma.Data.Len()), g.allocZero(beta.Data.Len())
}

// affineGrads accumulates affineBufs' ∇γ and ∇β into the parameters that
// need them and returns both buffers to the arena.
func (g *Graph) affineGrads(gamma, beta *Value, ggamma, gbeta *tensor.Tensor) {
	if ggamma == nil {
		return
	}
	if g.needs(gamma) {
		g.accum(gamma, ggamma)
	}
	if g.needs(beta) {
		g.accum(beta, gbeta)
	}
	g.free(ggamma)
	g.free(gbeta)
}

// rowNorm is the op behind LayerNorm and GroupNorm2d: normRows over rows of
// span elements with a new affine channel every chanSpan elements, and
// normBackward as its gradient.
func (g *Graph) rowNorm(op string, x, gamma, beta *Value, span, chanSpan int) *Value {
	xs := x.Data.Shape()
	// x̂ and 1/σ are saved for backward only: an inference pass keeps
	// neither and computes the same y.
	var xhat, invStd []float32
	if !g.inference {
		xhat, invStd = g.alloc(xs...).Data(), g.alloc(x.Data.Len()/span).Data()
	}
	out := g.node(op, g.alloc(xs...), x, gamma, beta)
	gmd := gamma.Data.Data()
	normRows(out.Data.Data(), xhat, invStd, x.Data.Data(), span, chanSpan, gmd, beta.Data.Data())
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.alloc(xs...)
		ggamma, gbeta := g.affineBufs(gamma, beta)
		normBackward(gx.Data(), out.Grad.Data(), xhat, invStd, span, chanSpan, gmd, ggamma, gbeta)
		g.accum(x, gx)
		g.free(gx)
		g.affineGrads(gamma, beta, ggamma, gbeta)
	}
	return out
}

// LayerNorm normalizes the last dimension of x and applies a learned affine
// transform: y = γ·(x−μ)/σ + β.
func (g *Graph) LayerNorm(x, gamma, beta *Value) *Value {
	d := x.Data.Dim(x.Data.Rank() - 1)
	if gamma.Data.Len() != d || beta.Data.Len() != d {
		panic(fmt.Sprintf("autograd: LayerNorm affine params must have length %d", d))
	}
	return g.rowNorm("layernorm", x, gamma, beta, d, 1)
}

// GroupNorm2d normalizes [B,C,H,W] over groups of channels (BiT uses
// GroupNorm instead of BatchNorm). groups must divide C.
func (g *Graph) GroupNorm2d(x, gamma, beta *Value, groups int) *Value {
	c, hw := x.Data.Dim(1), x.Data.Dim(2)*x.Data.Dim(3)
	if c%groups != 0 {
		panic(fmt.Sprintf("autograd: GroupNorm2d groups %d must divide channels %d", groups, c))
	}
	return g.rowNorm("groupnorm2d", x, gamma, beta, c/groups*hw, hw)
}

// BatchNormState carries the running statistics of a BatchNorm2d layer,
// owned by the nn layer and shared across graphs.
type BatchNormState struct {
	RunningMean []float64
	RunningVar  []float64
	Momentum    float64
}

// NewBatchNormState returns running stats for c channels initialized to the
// standard (0 mean, unit variance) with the given EMA momentum.
func NewBatchNormState(c int, momentum float64) *BatchNormState {
	s := &BatchNormState{
		RunningMean: make([]float64, c),
		RunningVar:  make([]float64, c),
		Momentum:    momentum,
	}
	for i := range s.RunningVar {
		s.RunningVar[i] = 1
	}
	return s
}

// BatchNorm2d normalizes each channel of [B,C,H,W]. In training mode it uses
// batch statistics and updates the running stats; in eval mode it uses the
// running stats (the deterministic inference path attacked in the paper).
// Its statistics span the batch, so it keeps its own backward, whose float64
// γ·(1/σ) scale the ResNet training goldens pin.
func (g *Graph) BatchNorm2d(x, gamma, beta *Value, st *BatchNormState, training bool) *Value {
	xs := x.Data.Shape()
	b, c, hw := xs[0], xs[1], xs[2]*xs[3]
	n := b * hw
	xd := x.Data.Data()
	mean, invStd := make([]float32, c), make([]float32, c)
	for ch := 0; ch < c; ch++ {
		m, vr := st.RunningMean[ch], st.RunningVar[ch]
		if training {
			m, vr = meanVar(xd[ch*hw:], hw, b, c*hw)
			st.RunningMean[ch] = (1-st.Momentum)*st.RunningMean[ch] + st.Momentum*m
			st.RunningVar[ch] = (1-st.Momentum)*st.RunningVar[ch] + st.Momentum*vr
		}
		mean[ch], invStd[ch] = float32(m), float32(1/math.Sqrt(vr+normEps))
	}
	// x̂ is saved for backward only; an inference pass keeps none.
	var xhat []float32
	if !g.inference {
		xhat = g.alloc(xs...).Data()
	}
	out := g.node("batchnorm2d", g.alloc(xs...), x, gamma, beta)
	gmd, btd, od := gamma.Data.Data(), beta.Data.Data(), out.Data.Data()
	for lo, ch := 0, 0; lo < len(xd); lo, ch = lo+hw, (ch+1)%c {
		var hrow []float32
		if xhat != nil {
			hrow = xhat[lo : lo+hw]
		}
		normApply(od[lo:lo+hw], hrow, xd[lo:lo+hw], mean[ch], invStd[ch], gmd, btd, ch, hw)
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.alloc(xs...)
		ggamma, gbeta := g.affineBufs(gamma, beta)
		gy, gxd := out.Grad.Data(), gx.Data()
		for ch := 0; ch < c; ch++ {
			gscale := float64(gmd[ch]) * float64(invStd[ch])
			// The channel sums feed the gamma/beta gradients always, and the
			// input gradient only in training mode; skip them when neither
			// consumer is active.
			var sumG, sumGH float64
			if ggamma != nil || training {
				for lo := ch * hw; lo < len(gy); lo += c * hw {
					hh := xhat[lo : lo+hw]
					for j, v := range gy[lo : lo+hw] {
						sumG += float64(v)
						sumGH += float64(v) * float64(hh[j])
					}
				}
			}
			if ggamma != nil {
				ggamma.Data()[ch] = float32(sumGH)
				gbeta.Data()[ch] = float32(sumG)
			}
			mg, mgh := sumG/float64(n), sumGH/float64(n)
			for lo := ch * hw; lo < len(gy); lo += c * hw {
				hh, dst := xhat[lo:lo+hw], gxd[lo:lo+hw]
				for j, v := range gy[lo : lo+hw] {
					if training {
						dst[j] = float32(gscale * (float64(v) - mg - float64(hh[j])*mgh))
					} else {
						// Eval mode: y is an affine map of x, so ∇x = γ/σ · ∇y.
						dst[j] = float32(gscale) * v
					}
				}
			}
		}
		g.accum(x, gx)
		g.free(gx)
		g.affineGrads(gamma, beta, ggamma, gbeta)
	}
	return out
}
