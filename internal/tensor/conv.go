package tensor

import "fmt"

// ConvOut returns the output spatial size of a convolution with the given
// input size, kernel, stride, and symmetric zero padding.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2ColInto lowers one [C,H,W] image into the pre-allocated cols matrix
// [outH*outW, C*kh*kw], overwriting every element: each row holds the
// receptive field of one output position. Zero padding is applied
// implicitly.
func Im2ColInto(cols, x *Tensor, kh, kw, stride, pad int) {
	if len(x.shape) != 3 {
		panic(fmt.Sprintf("tensor: Im2ColInto requires [C,H,W], got %v", x.shape))
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if len(cols.data) != oh*ow*c*kh*kw {
		panic(fmt.Sprintf("tensor: Im2ColInto destination %v incompatible", cols.shape))
	}
	im2colRaw(cols.data, x.data, c, h, w, kh, kw, stride, pad)
}

// im2colRaw lowers one [C,H,W] raw image into cols [outH*outW, C*kh*kw].
// Output rows are disjoint, so the lowering is sharded over the worker pool
// for large images (each row is written identically on every path).
func im2colRaw(cols, x []float32, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	parallelFor(oh, oh*ow*c*kh*kw, func(y0, y1 int) {
		im2colRows(cols, x, c, h, w, kh, kw, stride, pad, y0, y1)
	})
}

// im2colRows lowers output rows [y0,y1) of one image.
func im2colRows(cols, x []float32, c, h, w, kh, kw, stride, pad, y0, y1 int) {
	ow := ConvOut(w, kw, stride, pad)
	for oy := y0; oy < y1; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := cols[(oy*ow+ox)*c*kh*kw:]
			idx := 0
			for ch := 0; ch < c; ch++ {
				plane := x[ch*h*w:]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							row[idx] = plane[iy*w+ix]
						} else {
							row[idx] = 0
						}
						idx++
					}
				}
			}
		}
	}
}

// Col2ImInto scatters a [outH*outW, C*kh*kw] matrix back onto the
// pre-allocated img [C,H,W], overwriting it (img is zeroed first, then
// overlapping contributions are accumulated). It is the adjoint of
// Im2ColInto and is used in convolution backward passes and transposed
// convolutions.
func Col2ImInto(img, cols *Tensor, kh, kw, stride, pad int) {
	if len(img.shape) != 3 {
		panic(fmt.Sprintf("tensor: Col2ImInto requires a [C,H,W] destination, got %v", img.shape))
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if cols.shape[0] != oh*ow || cols.shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with image [%d,%d,%d] k=%dx%d s=%d p=%d", cols.shape, c, h, w, kh, kw, stride, pad))
	}
	col2imRaw(img.data, cols.data, c, h, w, kh, kw, stride, pad)
}

// col2imRaw scatters cols back onto a [C,H,W] raw image buffer (img is
// zeroed first). Output rows of the scatter overlap, so the parallel axis is
// channels: each channel plane receives its contributions from exactly one
// worker. Serially the row-major loop is preferred — it reads cols exactly
// once in storage order, where the channel-major loop re-walks it per
// channel. Both orders deliver every output element its contributions in
// the same ascending (oy, ox) sequence (an element only receives from its
// own channel's columns), so the accumulation is bit-identical either way
// and for every worker count.
func col2imRaw(img, cols []float32, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ckk := c * kh * kw
	if !shouldParallel(c, oh*ow*ckk) {
		col2imRowMajor(img, cols, c, h, w, kh, kw, stride, pad)
		return
	}
	parallelFor(c, oh*ow*ckk, func(c0, c1 int) {
		for ch := c0; ch < c1; ch++ {
			plane := img[ch*h*w : (ch+1)*h*w]
			for i := range plane {
				plane[i] = 0
			}
			base := ch * kh * kw
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := cols[(oy*ow+ox)*ckk+base:]
					idx := 0
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							idx += kw
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride - pad + kx
							if ix >= 0 && ix < w {
								plane[iy*w+ix] += row[idx]
							}
							idx++
						}
					}
				}
			}
		}
	})
}

// col2imRowMajor is the cache-friendly serial scatter: one sequential pass
// over cols in storage order.
func col2imRowMajor(img, cols []float32, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ckk := c * kh * kw
	for i := 0; i < c*h*w; i++ {
		img[i] = 0
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := cols[(oy*ow+ox)*ckk:]
			idx := 0
			for ch := 0; ch < c; ch++ {
				plane := img[ch*h*w : (ch+1)*h*w]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						idx += kw
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							plane[iy*w+ix] += row[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// scratch borrows a tensor from p, or allocates fresh when p is nil.
func scratch(p *Pool, shape ...int) *Tensor {
	if p == nil {
		return New(shape...)
	}
	return p.Get(shape...)
}

func unscratch(p *Pool, ts ...*Tensor) {
	if p == nil {
		return
	}
	for _, t := range ts {
		p.Put(t)
	}
}

// Conv2dInto performs a batched 2-D convolution of x [B,C,H,W] with weight
// [outC,C,kh,kw] and bias [outC] (or nil) into dst [B,outC,outH,outW],
// overwriting it. Per-sample im2col scratch is borrowed from p when non-nil,
// making the steady-state kernel allocation-free.
func Conv2dInto(p *Pool, dst, x, weight, bias *Tensor, stride, pad int) {
	if len(x.shape) != 4 || len(weight.shape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2d requires x [B,C,H,W] and weight [O,C,kh,kw], got %v and %v", x.shape, weight.shape))
	}
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc, kc, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if kc != c {
		panic(fmt.Sprintf("tensor: Conv2d channel mismatch x=%v weight=%v", x.shape, weight.shape))
	}
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if len(dst.data) != b*oc*oh*ow {
		panic(fmt.Sprintf("tensor: Conv2dInto destination %v incompatible", dst.shape))
	}
	wmat := weight.Reshape(oc, c*kh*kw)
	var biasData []float32
	if bias != nil {
		biasData = bias.data
	}
	hk, t0 := kernelStart()
	// Samples are independent: shard the batch over the worker pool, with
	// im2col/product scratch borrowed per shard (Pool is concurrency-safe).
	parallelFor(b, b*oh*ow*oc*c*kh*kw, func(i0, i1 int) {
		cols := scratch(p, oh*ow, c*kh*kw)
		prod := scratch(p, oh*ow, oc)
		for i := i0; i < i1; i++ {
			im2colRaw(cols.data, x.data[i*c*h*w:(i+1)*c*h*w], c, h, w, kh, kw, stride, pad)
			matMulTransB(prod.data, cols.data, wmat.data, oh*ow, c*kh*kw, oc) // [oh*ow, oc]
			transposeScatterBias(dst.data[i*oc*oh*ow:(i+1)*oc*oh*ow], prod.data, biasData, oc, oh*ow)
		}
		unscratch(p, cols, prod)
	})
	kernelEnd(hk, t0, KernelConv)
}

// transposeScatterBias transposes prod [np, oc] into dst [oc, np] in square
// cache-resident tiles, folding the bias add into the same pass. Each dst
// element is produced by a single rounded add (prod + bias), exactly what
// the historical copy-then-add loops computed.
func transposeScatterBias(dst, prod, bias []float32, oc, np int) {
	const tb = 32
	for o0 := 0; o0 < oc; o0 += tb {
		o1 := o0 + tb
		if o1 > oc {
			o1 = oc
		}
		for p0 := 0; p0 < np; p0 += tb {
			p1 := p0 + tb
			if p1 > np {
				p1 = np
			}
			for o := o0; o < o1; o++ {
				dr := dst[o*np:]
				if bias != nil {
					bv := bias[o]
					for pp := p0; pp < p1; pp++ {
						dr[pp] = prod[pp*oc+o] + bv
					}
				} else {
					for pp := p0; pp < p1; pp++ {
						dr[pp] = prod[pp*oc+o]
					}
				}
			}
		}
	}
}

// Conv2dBackwardInto computes the gradients of Conv2dInto given the upstream
// gradient gy [B,outC,outH,outW], into pre-allocated gx [B,C,H,W] and
// gw [O,C,kh,kw] (both overwritten), and accumulates the bias gradient into
// gb when non-nil (gb must be pre-zeroed by the caller or freshly borrowed
// with GetZero). gw may be nil to skip the weight gradient entirely (attack
// oracles differentiate w.r.t. the input only). Scratch is borrowed from p
// when non-nil.
func Conv2dBackwardInto(p *Pool, gx, gw, gb, x, weight, gy *Tensor, stride, pad int) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ckk := c * kh * kw
	wmat := weight.Reshape(oc, ckk)
	hk, t0 := kernelStart()

	// gx is per-sample disjoint and parallelizes directly. The gw/gb
	// reductions cross samples, so the parallel phase only writes per-sample
	// partials; the cross-sample sum happens serially below, in ascending
	// sample order, reproducing the historical accumulation bit-for-bit.
	var gwPart, gbPart *Tensor
	if gw != nil {
		gwPart = scratch(p, b, oc*ckk)
	}
	if gb != nil {
		gbPart = scratch(p, b, oc)
	}
	parallelFor(b, 2*b*oh*ow*oc*ckk, func(i0, i1 int) {
		gyMat := scratch(p, oh*ow, oc)
		gcols := scratch(p, oh*ow, ckk)
		var cols *Tensor
		if gw != nil {
			cols = scratch(p, oh*ow, ckk)
		}
		for i := i0; i < i1; i++ {
			gyData := gy.data[i*oc*oh*ow : (i+1)*oc*oh*ow] // [oc, oh, ow]
			// gyMat [oh*ow, oc]
			for o := 0; o < oc; o++ {
				plane := gyData[o*oh*ow : (o+1)*oh*ow]
				for pp, v := range plane {
					gyMat.data[pp*oc+o] = v
				}
				if gbPart != nil {
					var s float32
					for _, v := range plane {
						s += v
					}
					gbPart.data[i*oc+o] = s
				}
			}
			if gw != nil {
				// Per-sample partial gyMatᵀ @ cols into this sample's row.
				im2colRaw(cols.data, x.data[i*c*h*w:(i+1)*c*h*w], c, h, w, kh, kw, stride, pad)
				gwRow := gwPart.data[i*oc*ckk : (i+1)*oc*ckk]
				for j := range gwRow {
					gwRow[j] = 0
				}
				transAOuter(gwRow, gyMat.data, cols.data, oc, oh*ow, ckk)
			}
			// gcols = gyMat @ wmat, then scatter back
			matMulInto(gcols.data, gyMat.data, wmat.data, oh*ow, oc, ckk)
			col2imRaw(gx.data[i*c*h*w:(i+1)*c*h*w], gcols.data, c, h, w, kh, kw, stride, pad)
		}
		unscratch(p, gyMat, gcols)
		if cols != nil {
			unscratch(p, cols)
		}
	})
	if gw != nil {
		gw.Zero()
		for i := 0; i < b; i++ {
			saxpy(gw.data, gwPart.data[i*oc*ckk:(i+1)*oc*ckk], 1)
		}
		unscratch(p, gwPart)
	}
	if gb != nil {
		for i := 0; i < b; i++ {
			row := gbPart.data[i*oc : (i+1)*oc]
			for o, v := range row {
				gb.data[o] += v
			}
		}
		unscratch(p, gbPart)
	}
	kernelEnd(hk, t0, KernelConv)
}

// ConvTranspose2dInto applies a transposed (fractionally-strided)
// convolution mapping x [B,C,H,W] with kernel [C,outC,kh,kw] into the
// pre-allocated dst [B,outC,outH,outW], outH = (H-1)*stride - 2*pad + kh,
// overwriting it, with scratch borrowed from p when non-nil. This is the
// geometric upsampling used by the BPDA-style attack on the adjoint (§V-B).
// Instead of the naive scalar scatter it runs the adjoint of the im2col
// convolution: per sample, lift x [C,h,w] to [h*w, C], multiply by the
// [C, outC*kh*kw] kernel matrix through the blocked matmul, and
// Col2Im-scatter the result onto the output grid. The batch is sharded over
// the worker pool; each sample stays serial, so results are bit-identical
// for every worker count.
func ConvTranspose2dInto(p *Pool, dst, x, weight *Tensor, stride, pad int) {
	if len(x.shape) != 4 || len(weight.shape) != 4 {
		panic(fmt.Sprintf("tensor: ConvTranspose2dInto requires x [B,C,H,W] and weight [C,O,kh,kw], got %v and %v", x.shape, weight.shape))
	}
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	wc, oc, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if wc != c {
		panic(fmt.Sprintf("tensor: ConvTranspose2dInto channel mismatch x=%v weight=%v", x.shape, weight.shape))
	}
	oh := (h-1)*stride - 2*pad + kh
	ow := (w-1)*stride - 2*pad + kw
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: ConvTranspose2dInto output would be empty (%dx%d)", oh, ow))
	}
	if len(dst.data) != b*oc*oh*ow {
		panic(fmt.Sprintf("tensor: ConvTranspose2dInto destination %v incompatible", dst.shape))
	}
	okk := oc * kh * kw
	wmat := weight.Reshape(c, okk)
	hk, t0 := kernelStart()
	parallelFor(b, b*h*w*c*okk, func(i0, i1 int) {
		xT := scratch(p, h*w, c)
		gcols := scratch(p, h*w, okk)
		for i := i0; i < i1; i++ {
			// x sample [c, h*w] -> xT [h*w, c]
			transposeScatterBias(xT.data, x.data[i*c*h*w:(i+1)*c*h*w], nil, h*w, c)
			matMulInto(gcols.data, xT.data, wmat.data, h*w, c, okk)
			// The (h,w) grid is exactly the conv-output grid of the adjoint
			// ((oh+2*pad-kh)/stride+1 == h), so Col2Im scatters gcols onto
			// the upsampled [oc,oh,ow] sample.
			col2imRaw(dst.data[i*oc*oh*ow:(i+1)*oc*oh*ow], gcols.data, oc, oh, ow, kh, kw, stride, pad)
		}
		unscratch(p, xT, gcols)
	})
	kernelEnd(hk, t0, KernelConv)
}

// MaxPool2dIdxInto max-pools x [B,C,H,W] with square window k and stride s
// into the pre-allocated out [B,C,oh,ow], overwriting it, and stores in the
// caller-provided (e.g. pooled) idx, of length B*C*oh*ow, the flat argmax
// index of every output element within its sample's [C,H,W] layout, used by
// the backward pass. A nil idx (a forward-only caller) records no indices.
func MaxPool2dIdxInto(out, x *Tensor, k, s int, idx []int) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, s, 0), ConvOut(w, k, s, 0)
	if len(out.data) != b*c*oh*ow || (idx != nil && len(idx) != b*c*oh*ow) {
		panic(fmt.Sprintf("tensor: MaxPool2dIdxInto destination %v incompatible", out.shape))
	}
	for i := 0; i < b; i++ {
		xi := x.data[i*c*h*w : (i+1)*c*h*w]
		oi := out.data[i*c*oh*ow : (i+1)*c*oh*ow]
		for ch := 0; ch < c; ch++ {
			plane := xi[ch*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := -1
					var best float32
					for ky := 0; ky < k; ky++ {
						iy := oy*s + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s + kx
							if ix >= w {
								continue
							}
							v := plane[iy*w+ix]
							if bestIdx < 0 || v > best {
								best, bestIdx = v, ch*h*w+iy*w+ix
							}
						}
					}
					o := ch*oh*ow + oy*ow + ox
					oi[o] = best
					if idx != nil {
						idx[i*c*oh*ow+o] = bestIdx
					}
				}
			}
		}
	}
}

// AvgPool2dGlobalInto averages each channel plane of x [B,C,H,W] into the
// pre-allocated out [B,C], overwriting it.
func AvgPool2dGlobalInto(out, x *Tensor) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if len(out.data) != b*c {
		panic(fmt.Sprintf("tensor: AvgPool2dGlobalInto destination %v incompatible", out.shape))
	}
	inv := 1 / float32(h*w)
	for i := 0; i < b; i++ {
		xi := x.data[i*c*h*w : (i+1)*c*h*w]
		for ch := 0; ch < c; ch++ {
			plane := xi[ch*h*w : (ch+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			out.data[i*c+ch] = s * inv
		}
	}
}

// Pad2dInto zero-pads the spatial dimensions of x [B,C,H,W] by p on every
// side: it copies x into the interior of the pre-allocated out
// [B,C,H+2p,W+2p]. The padding border is NOT written: out must arrive
// zeroed (freshly allocated or Pool.GetZero).
func Pad2dInto(out, x *Tensor, p int) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := h+2*p, w+2*p
	if len(out.data) != b*c*oh*ow {
		panic(fmt.Sprintf("tensor: Pad2dInto destination %v incompatible", out.shape))
	}
	for i := 0; i < b; i++ {
		xi := x.data[i*c*h*w : (i+1)*c*h*w]
		oi := out.data[i*c*oh*ow : (i+1)*c*oh*ow]
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				src := xi[ch*h*w+y*w : ch*h*w+(y+1)*w]
				dst := oi[ch*oh*ow+(y+p)*ow+p:]
				copy(dst[:w], src)
			}
		}
	}
}

// Unpad2dInto crops the p-wide border of x [B,C,H,W] into the pre-allocated
// out [B,C,H-2p,W-2p], overwriting every element; the adjoint of Pad2dInto.
func Unpad2dInto(out, x *Tensor, p int) {
	b, c, oh, ow := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	h, w := oh-2*p, ow-2*p
	if len(out.data) != b*c*h*w {
		panic(fmt.Sprintf("tensor: Unpad2dInto destination %v incompatible", out.shape))
	}
	for i := 0; i < b; i++ {
		xi := x.data[i*c*oh*ow : (i+1)*c*oh*ow]
		oi := out.data[i*c*h*w : (i+1)*c*h*w]
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				src := xi[ch*oh*ow+(y+p)*ow+p:]
				copy(oi[ch*h*w+y*w:ch*h*w+(y+1)*w], src[:w])
			}
		}
	}
}
