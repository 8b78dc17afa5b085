package autograd

import (
	"fmt"

	"pelta/internal/tensor"
)

// Reshape returns a vertex viewing x with a new shape. Data is copied so the
// graph's vertices stay independent for shielding purposes. One dimension
// may be -1 to be inferred.
func (g *Graph) Reshape(x *Value, shape ...int) *Value {
	n := x.Data.Len()
	infer, known := -1, 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("autograd: multiple -1 dims in Reshape")
			}
			infer = i
			continue
		}
		known *= d
	}
	// The panics format a copy of shape: handing fmt the variadic slice
	// itself would move it to the heap at every call site.
	var sb [shapeScratch]int
	if infer >= 0 {
		if known == 0 || n%known != 0 {
			panic(fmt.Sprintf("autograd: cannot infer dim reshaping %v to %v", x.Data.Shape(), append([]int(nil), shape...)))
		}
		// Copy before writing the inferred dim: the variadic slice may be a
		// caller-owned slice reused across calls.
		shape = append(sb[:0], shape...)
		shape[infer] = n / known
		known *= shape[infer]
	}
	if known != n {
		panic(fmt.Sprintf("autograd: cannot reshape %v (%d elems) to %v", x.Data.Shape(), n, append([]int(nil), shape...)))
	}
	out := g.node("reshape", g.alloc(shape...), x)
	out.Data.CopyFrom(x.Data)
	if g.inference {
		return out
	}
	out.backward = func() {
		// accum matches by element count; the shape header is irrelevant
		// for interior adjoint accumulation.
		g.accum(x, out.Grad)
	}
	return out
}

// Permute reorders the dimensions of x by axes (a permutation of 0..rank-1),
// materializing a contiguous result.
func (g *Graph) Permute(x *Value, axes ...int) *Value {
	shape := x.Data.Shape()
	var sb [shapeScratch]int
	outShape := sb[:0]
	for _, a := range axes {
		outShape = append(outShape, shape[a])
	}
	data := g.alloc(outShape...)
	permuteInto(data, x.Data, axes)
	out := g.node("permute", data, x)
	if g.inference {
		return out
	}
	inv := make([]int, len(axes))
	for i, a := range axes {
		inv[a] = i
	}
	out.backward = func() {
		t := g.alloc(shape...)
		permuteInto(t, out.Grad, inv)
		g.accum(x, t)
		g.free(t)
	}
	return out
}

// permuteInto writes the axes-permutation of t into the pre-allocated out,
// overwriting every element.
func permuteInto(out, t *tensor.Tensor, axes []int) {
	shape := t.Shape()
	if len(axes) != len(shape) {
		panic(fmt.Sprintf("autograd: permute axes %v do not match rank %d", append([]int(nil), axes...), len(shape)))
	}
	// Fast paths for the attention layout shuffles, which dominate permute
	// traffic: swapping the two middle axes of a rank-4 tensor and swapping
	// the trailing axes of a rank-3 tensor.
	if len(axes) == 4 && axes[0] == 0 && axes[1] == 2 && axes[2] == 1 && axes[3] == 3 {
		swapMiddle4(out.Data(), t.Data(), shape[0], shape[1], shape[2], shape[3])
		return
	}
	if len(axes) == 3 && axes[0] == 0 && axes[1] == 2 && axes[2] == 1 {
		transposeLast2(out.Data(), t.Data(), shape[0], shape[1], shape[2])
		return
	}
	outShape := out.Shape()
	// Strides of the input.
	var sb, ib [shapeScratch]int
	inStride := append(sb[:0], shape...)
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		inStride[i] = s
		s *= shape[i]
	}
	// Walk output positions in order, map back to input offset. idx is the
	// running multi-index: rank-sized like inStride, starting at zero.
	idx := append(ib[:0], shape...)
	clear(idx)
	data, src := out.Data(), t.Data()
	for o := range data {
		off := 0
		for d := range idx {
			off += idx[d] * inStride[axes[d]]
		}
		data[o] = src[off]
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < outShape[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// swapMiddle4 writes src [a,b,c,d] as dst [a,c,b,d] (axes 0,2,1,3): the
// head-split/merge shuffle of multi-head attention. Innermost runs of d
// elements stay contiguous, so each moves with one copy.
func swapMiddle4(dst, src []float32, a, b, c, d int) {
	for i := 0; i < a; i++ {
		sBase := i * b * c * d
		dBase := i * c * b * d
		for j := 0; j < b; j++ {
			for k := 0; k < c; k++ {
				s := sBase + (j*c+k)*d
				t := dBase + (k*b+j)*d
				copy(dst[t:t+d], src[s:s+d])
			}
		}
	}
}

// transposeLast2 writes src [g,r,c] as dst [g,c,r] (axes 0,2,1): the K
// transpose of attention scores.
func transposeLast2(dst, src []float32, g, r, c int) {
	for i := 0; i < g; i++ {
		s := src[i*r*c : (i+1)*r*c]
		d := dst[i*r*c : (i+1)*r*c]
		for row := 0; row < r; row++ {
			sr := s[row*c : (row+1)*c]
			for col, v := range sr {
				d[col*r+row] = v
			}
		}
	}
}

// PrependToken prepends a learned [D] token to every sequence of a [B,T,D]
// vertex, producing [B,T+1,D] — the ViT class-token concatenation of §V-A.
func (g *Graph) PrependToken(x, tok *Value) *Value {
	xs := x.Data.Shape()
	if len(xs) != 3 || tok.Data.Len() != xs[2] {
		panic(fmt.Sprintf("autograd: PrependToken needs [B,T,D] and [D], got %v and %v", xs, tok.Data.Shape()))
	}
	b, t, d := xs[0], xs[1], xs[2]
	out := g.node("prepend_token", g.alloc(b, t+1, d), x, tok)
	od, xd := out.Data.Data(), x.Data.Data()
	for i := 0; i < b; i++ {
		dst := od[i*(t+1)*d : (i+1)*(t+1)*d]
		copy(dst[:d], tok.Data.Data())
		copy(dst[d:], xd[i*t*d:(i+1)*t*d])
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		gy := out.Grad.Data()
		if g.needs(x) {
			gx := g.alloc(b, t, d)
			for i := 0; i < b; i++ {
				copy(gx.Data()[i*t*d:(i+1)*t*d], gy[i*(t+1)*d+d:(i+1)*(t+1)*d])
			}
			g.accum(x, gx)
			g.free(gx)
		}
		if g.needs(tok) {
			gtok := g.allocZero(tok.Data.Shape()...)
			for i := 0; i < b; i++ {
				for j, v := range gy[i*(t+1)*d : i*(t+1)*d+d] {
					gtok.Data()[j] += v
				}
			}
			g.accum(tok, gtok)
			g.free(gtok)
		}
	}
	return out
}

// TakeToken extracts token t from a [B,T,D] vertex as [B,D] (e.g. the class
// token before the classification head).
func (g *Graph) TakeToken(x *Value, t int) *Value {
	xs := x.Data.Shape()
	if len(xs) != 3 || t < 0 || t >= xs[1] {
		panic(fmt.Sprintf("autograd: TakeToken(%d) invalid for shape %v", t, xs))
	}
	b, seq, d := xs[0], xs[1], xs[2]
	out := g.node("take_token", g.alloc(b, d), x)
	for i := 0; i < b; i++ {
		copy(out.Data.Data()[i*d:(i+1)*d], x.Data.Data()[(i*seq+t)*d:(i*seq+t+1)*d])
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.allocZero(xs...)
		for i := 0; i < b; i++ {
			copy(gx.Data()[(i*seq+t)*d:(i*seq+t+1)*d], out.Grad.Data()[i*d:(i+1)*d])
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// Unpatchify is the inverse of Patchify: it folds [B, N, C*p*p] patch
// tokens back into a [B,C,H,W] feature map (used by MobileViT-style blocks
// that run attention on patches of a convolutional feature map).
func (g *Graph) Unpatchify(x *Value, c, h, w, p int) *Value {
	xs := x.Data.Shape()
	gh, gw := h/p, w/p
	if len(xs) != 3 || xs[1] != gh*gw || xs[2] != c*p*p {
		panic(fmt.Sprintf("autograd: Unpatchify(%d,%d,%d,%d) invalid for shape %v", c, h, w, p, xs))
	}
	b, sample := xs[0], c*h*w
	out := g.node("unpatchify", g.alloc(b, c, h, w), x)
	for i := 0; i < b; i++ {
		patchesToImage(out.Data.Data()[i*sample:(i+1)*sample], x.Data.Data()[i*sample:(i+1)*sample], c, h, w, p, false)
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.alloc(xs...)
		for i := 0; i < b; i++ {
			imageToPatches(gx.Data()[i*sample:(i+1)*sample], out.Grad.Data()[i*sample:(i+1)*sample], c, h, w, p)
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// Patchify splits a [B,C,H,W] vertex into flattened non-overlapping p×p
// patches, producing [B, (H/p)*(W/p), C*p*p]. This is the "separation of the
// input into patches x_p^n" that Pelta shields for ViT models.
func (g *Graph) Patchify(x *Value, p int) *Value {
	xs := x.Data.Shape()
	if len(xs) != 4 || xs[2]%p != 0 || xs[3]%p != 0 {
		panic(fmt.Sprintf("autograd: Patchify(%d) invalid for shape %v", p, xs))
	}
	b, c, h, w := xs[0], xs[1], xs[2], xs[3]
	sample := c * h * w
	out := g.node("patchify", g.alloc(b, (h/p)*(w/p), c*p*p), x)
	for i := 0; i < b; i++ {
		imageToPatches(out.Data.Data()[i*sample:(i+1)*sample], x.Data.Data()[i*sample:(i+1)*sample], c, h, w, p)
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.allocZero(xs...)
		for i := 0; i < b; i++ {
			patchesToImage(gx.Data()[i*sample:(i+1)*sample], out.Grad.Data()[i*sample:(i+1)*sample], c, h, w, p, true)
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// imageToPatches writes one sample's [C,H,W] image as its [N, C*p*p]
// non-overlapping p×p patch rows, overwriting patches.
func imageToPatches(patches, img []float32, c, h, w, p int) {
	gh, gw, d := h/p, w/p, c*p*p
	for py := 0; py < gh; py++ {
		for px := 0; px < gw; px++ {
			row := patches[(py*gw+px)*d : (py*gw+px+1)*d]
			for ch := 0; ch < c; ch++ {
				for dy := 0; dy < p; dy++ {
					for dx := 0; dx < p; dx++ {
						row[ch*p*p+dy*p+dx] = img[ch*h*w+(py*p+dy)*w+px*p+dx]
					}
				}
			}
		}
	}
}

// patchesToImage is the inverse layout move: one sample's patch rows back
// into its [C,H,W] image, overwriting img or, with add, accumulating into it
// (Patchify's adjoint into a zeroed gradient).
func patchesToImage(img, patches []float32, c, h, w, p int, add bool) {
	gh, gw, d := h/p, w/p, c*p*p
	for py := 0; py < gh; py++ {
		for px := 0; px < gw; px++ {
			row := patches[(py*gw+px)*d : (py*gw+px+1)*d]
			for ch := 0; ch < c; ch++ {
				for dy := 0; dy < p; dy++ {
					for dx := 0; dx < p; dx++ {
						imgOff := ch*h*w + (py*p+dy)*w + px*p + dx
						if add {
							img[imgOff] += row[ch*p*p+dy*p+dx]
						} else {
							img[imgOff] = row[ch*p*p+dy*p+dx]
						}
					}
				}
			}
		}
	}
}
