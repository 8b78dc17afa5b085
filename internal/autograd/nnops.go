package autograd

import (
	"fmt"
	"math"

	"pelta/internal/tensor"
)

// Conv2d applies a batched 2-D convolution with weight [O,C,kh,kw] and
// optional bias [O].
func (g *Graph) Conv2d(x, w, b *Value, stride, pad int) *Value {
	var bias *tensor.Tensor
	var pb [3]*Value
	parents := append(pb[:0], x, w)
	if b != nil {
		bias = b.Data
		parents = append(parents, b)
	}
	xs, ws := x.Data.Shape(), w.Data.Shape()
	oh := tensor.ConvOut(xs[2], ws[2], stride, pad)
	ow := tensor.ConvOut(xs[3], ws[3], stride, pad)
	out := g.node("conv2d", g.alloc(xs[0], ws[0], oh, ow), parents...)
	tensor.Conv2dInto(g.pool, out.Data, x.Data, w.Data, bias, stride, pad)
	if g.inference {
		return out
	}
	out.backward = func() {
		gx, gw, gb := g.convGrads(x, w, b, w.Data, out.Grad, stride, pad)
		g.accum(x, gx)
		g.free(gx)
		if gw != nil {
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

// WSConv2d applies a weight-standardized convolution (BiT / ResNet-v2 stem):
// the kernel is normalized to zero mean and unit variance per output channel
// before convolving. Standardization is differentiated through, so training
// updates the raw weights.
func (g *Graph) WSConv2d(x, w, b *Value, stride, pad int) *Value {
	ws := w.Data.Shape()
	oc := ws[0]
	fan := w.Data.Len() / oc
	const eps = 1e-5

	std := make([]float64, oc)
	wHat := g.alloc(ws...)
	for o := 0; o < oc; o++ {
		seg := w.Data.Data()[o*fan : (o+1)*fan]
		var m float64
		for _, v := range seg {
			m += float64(v)
		}
		m /= float64(fan)
		var vr float64
		for _, v := range seg {
			d := float64(v) - m
			vr += d * d
		}
		vr /= float64(fan)
		std[o] = math.Sqrt(vr + eps)
		dst := wHat.Data()[o*fan : (o+1)*fan]
		for i, v := range seg {
			dst[i] = float32((float64(v) - m) / std[o])
		}
	}

	var bias *tensor.Tensor
	var pb [3]*Value
	parents := append(pb[:0], x, w)
	if b != nil {
		bias = b.Data
		parents = append(parents, b)
	}
	xs := x.Data.Shape()
	oh := tensor.ConvOut(xs[2], ws[2], stride, pad)
	ow := tensor.ConvOut(xs[3], ws[3], stride, pad)
	out := g.node("wsconv2d", g.alloc(xs[0], oc, oh, ow), parents...)
	tensor.Conv2dInto(g.pool, out.Data, x.Data, wHat, bias, stride, pad)
	if g.inference {
		g.free(wHat)
		return out
	}
	out.backward = func() {
		gx, gwHat, gb := g.convGrads(x, w, b, wHat, out.Grad, stride, pad)
		g.accum(x, gx)
		g.free(gx)
		if gwHat != nil {
			// Chain through standardization:
			// gW = (gŴ − mean(gŴ) − Ŵ·mean(gŴ⊙Ŵ)) / σ, per output channel.
			gw := g.alloc(ws...)
			for o := 0; o < oc; o++ {
				gh := gwHat.Data()[o*fan : (o+1)*fan]
				wh := wHat.Data()[o*fan : (o+1)*fan]
				var mg, mgw float64
				for i := range gh {
					mg += float64(gh[i])
					mgw += float64(gh[i]) * float64(wh[i])
				}
				mg /= float64(fan)
				mgw /= float64(fan)
				dst := gw.Data()[o*fan : (o+1)*fan]
				for i := range gh {
					dst[i] = float32((float64(gh[i]) - mg - float64(wh[i])*mgw) / std[o])
				}
			}
			g.accum(w, gw)
			g.free(gw)
			g.free(gwHat)
		}
		if gb != nil {
			g.accum(b, gb)
			g.free(gb)
		}
	}
	return out
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

// LayerNorm normalizes the last dimension of x and applies a learned affine
// transform: y = γ·(x−μ)/σ + β.
func (g *Graph) LayerNorm(x, gamma, beta *Value) *Value {
	xs := x.Data.Shape()
	d := xs[len(xs)-1]
	rows := x.Data.Len() / d
	if gamma.Data.Len() != d || beta.Data.Len() != d {
		panic(fmt.Sprintf("autograd: LayerNorm affine params must have length %d", d))
	}
	const eps = 1e-5
	// x̂ and 1/σ are saved for backward only: an inference pass keeps
	// neither (hd stays nil) and computes the same y.
	var hd, invStd []float32
	if !g.inference {
		hd, invStd = g.alloc(xs...).Data(), g.alloc(rows).Data()
	}
	out := g.node("layernorm", g.alloc(xs...), x, gamma, beta)
	xd, od := x.Data.Data(), out.Data.Data()
	gmd, btd := gamma.Data.Data(), beta.Data.Data()
	for r := 0; r < rows; r++ {
		seg := xd[r*d : (r+1)*d]
		var m float64
		for _, v := range seg {
			m += float64(v)
		}
		m /= float64(d)
		var vr float64
		for _, v := range seg {
			dv := float64(v) - m
			vr += dv * dv
		}
		vr /= float64(d)
		is := float32(1 / math.Sqrt(vr+eps))
		if hd != nil {
			invStd[r] = is
		}
		for i, v := range seg {
			h := (v - float32(m)) * is
			if hd != nil {
				hd[r*d+i] = h
			}
			od[r*d+i] = gmd[i]*h + btd[i]
		}
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		track := g.needs(gamma) || g.needs(beta)
		gx := g.alloc(xs...)
		var ggamma, gbeta *tensor.Tensor
		if track {
			ggamma = g.allocZero(d)
			gbeta = g.allocZero(d)
		}
		gy := out.Grad.Data()
		for r := 0; r < rows; r++ {
			var mg, mgh float64
			for i := 0; i < d; i++ {
				gi := gy[r*d+i] * gmd[i]
				h := hd[r*d+i]
				mg += float64(gi)
				mgh += float64(gi) * float64(h)
				if track {
					ggamma.Data()[i] += gy[r*d+i] * h
					gbeta.Data()[i] += gy[r*d+i]
				}
			}
			mg /= float64(d)
			mgh /= float64(d)
			for i := 0; i < d; i++ {
				gi := float64(gy[r*d+i] * gmd[i])
				h := float64(hd[r*d+i])
				gx.Data()[r*d+i] = invStd[r] * float32(gi-mg-h*mgh)
			}
		}
		g.accum(x, gx)
		g.free(gx)
		if track {
			if g.needs(gamma) {
				g.accum(gamma, ggamma)
			}
			if g.needs(beta) {
				g.accum(beta, gbeta)
			}
			g.free(ggamma)
			g.free(gbeta)
		}
	}
	return out
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
func (g *Graph) BatchNorm2d(x, gamma, beta *Value, st *BatchNormState, training bool) *Value {
	xs := x.Data.Shape()
	b, c, h, w := xs[0], xs[1], xs[2], xs[3]
	n := b * h * w
	const eps = 1e-5

	mean := make([]float64, c)
	varr := make([]float64, c)
	if training {
		xd := x.Data.Data()
		for ch := 0; ch < c; ch++ {
			var m float64
			for i := 0; i < b; i++ {
				plane := xd[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
				for _, v := range plane {
					m += float64(v)
				}
			}
			m /= float64(n)
			var vr float64
			for i := 0; i < b; i++ {
				plane := xd[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
				for _, v := range plane {
					d := float64(v) - m
					vr += d * d
				}
			}
			vr /= float64(n)
			mean[ch], varr[ch] = m, vr
			st.RunningMean[ch] = (1-st.Momentum)*st.RunningMean[ch] + st.Momentum*m
			st.RunningVar[ch] = (1-st.Momentum)*st.RunningVar[ch] + st.Momentum*vr
		}
	} else {
		copy(mean, st.RunningMean)
		copy(varr, st.RunningVar)
	}

	invStd := make([]float32, c)
	for ch := 0; ch < c; ch++ {
		invStd[ch] = float32(1 / math.Sqrt(varr[ch]+eps))
	}
	// x̂ is saved for backward only; an inference pass keeps none.
	var xhat *tensor.Tensor
	if !g.inference {
		xhat = g.alloc(xs...)
	}
	out := g.node("batchnorm2d", g.alloc(xs...), x, gamma, beta)
	gmd, btd := gamma.Data.Data(), beta.Data.Data()
	sample := c * h * w
	for i := 0; i < b; i++ {
		src := x.Data.Data()[i*sample : (i+1)*sample]
		var hdst []float32
		if xhat != nil {
			hdst = xhat.Data()[i*sample : (i+1)*sample]
		}
		odst := out.Data.Data()[i*sample : (i+1)*sample]
		for ch := 0; ch < c; ch++ {
			m32, is := float32(mean[ch]), invStd[ch]
			for j := ch * h * w; j < (ch+1)*h*w; j++ {
				hv := (src[j] - m32) * is
				if hdst != nil {
					hdst[j] = hv
				}
				odst[j] = gmd[ch]*hv + btd[ch]
			}
		}
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		track := g.needs(gamma) || g.needs(beta)
		gx := g.alloc(xs...)
		var ggamma, gbeta *tensor.Tensor
		if track {
			ggamma = g.allocZero(c)
			gbeta = g.allocZero(c)
		}
		sample := c * h * w
		gyAll, hhAll, gxAll := out.Grad.Data(), xhat.Data(), gx.Data()
		for ch := 0; ch < c; ch++ {
			gscale := float64(gmd[ch]) * float64(invStd[ch])
			// The channel sums feed the gamma/beta gradients always, and the
			// input gradient only in training mode; skip them when neither
			// consumer is active.
			var sumG, sumGH float64
			if track || training {
				for i := 0; i < b; i++ {
					gy := gyAll[i*sample+ch*h*w : i*sample+(ch+1)*h*w]
					hh := hhAll[i*sample+ch*h*w : i*sample+(ch+1)*h*w]
					for j := range gy {
						sumG += float64(gy[j])
						sumGH += float64(gy[j]) * float64(hh[j])
					}
				}
			}
			if track {
				ggamma.Data()[ch] = float32(sumGH)
				gbeta.Data()[ch] = float32(sumG)
			}
			if training {
				mg := sumG / float64(n)
				mgh := sumGH / float64(n)
				for i := 0; i < b; i++ {
					gy := gyAll[i*sample+ch*h*w : i*sample+(ch+1)*h*w]
					hh := hhAll[i*sample+ch*h*w : i*sample+(ch+1)*h*w]
					dst := gxAll[i*sample+ch*h*w : i*sample+(ch+1)*h*w]
					for j := range gy {
						dst[j] = float32(gscale * (float64(gy[j]) - mg - float64(hh[j])*mgh))
					}
				}
			} else {
				// Eval mode: y is an affine map of x, so gx = γ/σ · gy.
				for i := 0; i < b; i++ {
					gy := gyAll[i*sample+ch*h*w : i*sample+(ch+1)*h*w]
					dst := gxAll[i*sample+ch*h*w : i*sample+(ch+1)*h*w]
					for j := range gy {
						dst[j] = float32(gscale) * gy[j]
					}
				}
			}
		}
		g.accum(x, gx)
		g.free(gx)
		if track {
			if g.needs(gamma) {
				g.accum(gamma, ggamma)
			}
			if g.needs(beta) {
				g.accum(beta, gbeta)
			}
			g.free(ggamma)
			g.free(gbeta)
		}
	}
	return out
}

// GroupNorm2d normalizes [B,C,H,W] over groups of channels (BiT uses
// GroupNorm instead of BatchNorm). groups must divide C.
func (g *Graph) GroupNorm2d(x, gamma, beta *Value, groups int) *Value {
	xs := x.Data.Shape()
	b, c, h, w := xs[0], xs[1], xs[2], xs[3]
	if c%groups != 0 {
		panic(fmt.Sprintf("autograd: GroupNorm2d groups %d must divide channels %d", groups, c))
	}
	cg := c / groups
	gn := cg * h * w
	const eps = 1e-5

	// x̂ and 1/σ are saved for backward only; an inference pass keeps
	// neither.
	var xhat *tensor.Tensor
	var invStd []float32
	if !g.inference {
		xhat, invStd = g.alloc(xs...), g.alloc(b*groups).Data()
	}
	out := g.node("groupnorm2d", g.alloc(xs...), x, gamma, beta)
	gmd, btd := gamma.Data.Data(), beta.Data.Data()
	sample := c * h * w
	for i := 0; i < b; i++ {
		src := x.Data.Data()[i*sample : (i+1)*sample]
		var hdst []float32
		if xhat != nil {
			hdst = xhat.Data()[i*sample : (i+1)*sample]
		}
		odst := out.Data.Data()[i*sample : (i+1)*sample]
		for gr := 0; gr < groups; gr++ {
			lo, hi := gr*cg*h*w, (gr+1)*cg*h*w
			var m float64
			for _, v := range src[lo:hi] {
				m += float64(v)
			}
			m /= float64(gn)
			var vr float64
			for _, v := range src[lo:hi] {
				d := float64(v) - m
				vr += d * d
			}
			vr /= float64(gn)
			is := float32(1 / math.Sqrt(vr+eps))
			if hdst != nil {
				invStd[i*groups+gr] = is
			}
			for j := lo; j < hi; j++ {
				ch := j / (h * w)
				hv := (src[j] - float32(m)) * is
				if hdst != nil {
					hdst[j] = hv
				}
				odst[j] = gmd[ch]*hv + btd[ch]
			}
		}
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		track := g.needs(gamma) || g.needs(beta)
		gx := g.alloc(xs...)
		var ggamma, gbeta *tensor.Tensor
		if track {
			ggamma = g.allocZero(c)
			gbeta = g.allocZero(c)
		}
		for i := 0; i < b; i++ {
			gy := out.Grad.Data()[i*sample : (i+1)*sample]
			hh := xhat.Data()[i*sample : (i+1)*sample]
			dst := gx.Data()[i*sample : (i+1)*sample]
			for gr := 0; gr < groups; gr++ {
				lo, hi := gr*cg*h*w, (gr+1)*cg*h*w
				var mg, mgh float64
				for j := lo; j < hi; j++ {
					ch := j / (h * w)
					gi := gy[j] * gmd[ch]
					mg += float64(gi)
					mgh += float64(gi) * float64(hh[j])
					if track {
						ggamma.Data()[ch] += gy[j] * hh[j]
						gbeta.Data()[ch] += gy[j]
					}
				}
				mg /= float64(gn)
				mgh /= float64(gn)
				is := invStd[i*groups+gr]
				for j := lo; j < hi; j++ {
					ch := j / (h * w)
					gi := float64(gy[j] * gmd[ch])
					dst[j] = is * float32(gi-mg-float64(hh[j])*mgh)
				}
			}
		}
		g.accum(x, gx)
		g.free(gx)
		if track {
			if g.needs(gamma) {
				g.accum(gamma, ggamma)
			}
			if g.needs(beta) {
				g.accum(beta, gbeta)
			}
			g.free(ggamma)
			g.free(gbeta)
		}
	}
	return out
}
