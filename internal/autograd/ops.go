package autograd

import (
	"fmt"
	"math"

	"pelta/internal/tensor"
)

// Add returns a+b (same shape).
func (g *Graph) Add(a, b *Value) *Value {
	out := g.node("add", g.alloc(a.Data.Shape()...), a, b)
	tensor.AddInto(out.Data, a.Data, b.Data)
	if g.inference {
		return out
	}
	out.backward = func() {
		if g.needs(a) {
			g.accum(a, out.Grad)
		}
		if g.needs(b) {
			g.accum(b, out.Grad)
		}
	}
	return out
}

// Sub returns a-b (same shape).
func (g *Graph) Sub(a, b *Value) *Value {
	out := g.node("sub", g.alloc(a.Data.Shape()...), a, b)
	tensor.SubInto(out.Data, a.Data, b.Data)
	if g.inference {
		return out
	}
	out.backward = func() {
		if g.needs(a) {
			g.accum(a, out.Grad)
		}
		if g.needs(b) {
			t := g.alloc(out.Grad.Shape()...)
			tensor.ScaleInto(t, out.Grad, -1)
			g.accum(b, t)
			g.free(t)
		}
	}
	return out
}

// Mul returns the Hadamard product a⊙b.
func (g *Graph) Mul(a, b *Value) *Value {
	out := g.node("mul", g.alloc(a.Data.Shape()...), a, b)
	tensor.MulInto(out.Data, a.Data, b.Data)
	if g.inference {
		return out
	}
	out.backward = func() {
		t := g.alloc(out.Grad.Shape()...)
		if g.needs(a) {
			tensor.MulInto(t, out.Grad, b.Data)
			g.accum(a, t)
		}
		if g.needs(b) {
			tensor.MulInto(t, out.Grad, a.Data)
			g.accum(b, t)
		}
		g.free(t)
	}
	return out
}

// Scale returns alpha*a for a constant alpha.
func (g *Graph) Scale(a *Value, alpha float32) *Value {
	out := g.node("scale", g.alloc(a.Data.Shape()...), a)
	tensor.ScaleInto(out.Data, a.Data, alpha)
	if g.inference {
		return out
	}
	out.backward = func() {
		if g.needs(a) {
			t := g.alloc(out.Grad.Shape()...)
			tensor.ScaleInto(t, out.Grad, alpha)
			g.accum(a, t)
			g.free(t)
		}
	}
	return out
}

// AddBroadcast adds a lower-rank vertex b (e.g. a [T,D] positional
// embedding) to every leading slice of a (e.g. [B,T,D]).
func (g *Graph) AddBroadcast(a, b *Value) *Value {
	an, bn := a.Data.Len(), b.Data.Len()
	if bn == 0 || an%bn != 0 {
		panic(fmt.Sprintf("autograd: AddBroadcast shapes %v and %v incompatible", a.Data.Shape(), b.Data.Shape()))
	}
	reps := an / bn
	data := g.alloc(a.Data.Shape()...)
	data.CopyFrom(a.Data)
	for r := 0; r < reps; r++ {
		seg := data.Data()[r*bn : (r+1)*bn]
		for i, v := range b.Data.Data() {
			seg[i] += v
		}
	}
	out := g.node("addbroadcast", data, a, b)
	if g.inference {
		return out
	}
	out.backward = func() {
		if g.needs(a) {
			g.accum(a, out.Grad)
		}
		if g.needs(b) {
			gb := g.allocZero(b.Data.Shape()...)
			for r := 0; r < reps; r++ {
				seg := out.Grad.Data()[r*bn : (r+1)*bn]
				for i := range gb.Data() {
					gb.Data()[i] += seg[i]
				}
			}
			g.accum(b, gb)
			g.free(gb)
		}
	}
	return out
}

// MatMul returns the 2-D product a@b.
func (g *Graph) MatMul(a, b *Value) *Value {
	out := g.node("matmul", g.alloc(a.Data.Dim(0), b.Data.Dim(1)), a, b)
	tensor.MatMulInto(out.Data, a.Data, b.Data)
	if g.inference {
		return out
	}
	out.backward = func() {
		if g.needs(a) {
			t := g.alloc(a.Data.Shape()...)
			tensor.MatMulTransBInto(t, out.Grad, b.Data)
			g.accum(a, t)
			g.free(t)
		}
		if g.needs(b) {
			t := g.alloc(b.Data.Shape()...)
			tensor.MatMulTransAInto(t, a.Data, out.Grad)
			g.accum(b, t)
			g.free(t)
		}
	}
	return out
}

// Linear applies y = x@Wᵀ + b over the last dimension of x, for x of any
// rank ≥ 2, weight [out,in] and optional bias [out].
func (g *Graph) Linear(x, w, b *Value) *Value {
	xs := x.Data.Shape()
	in := xs[len(xs)-1]
	outF := w.Data.Dim(0)
	if w.Data.Dim(1) != in {
		panic(fmt.Sprintf("autograd: Linear weight %v incompatible with input %v", w.Data.Shape(), xs))
	}
	var sb [shapeScratch]int
	outShape := append(append(sb[:0], xs[:len(xs)-1]...), outF)
	var pb [3]*Value
	parents := append(pb[:0], x, w)
	if b != nil {
		parents = append(parents, b)
	}
	// The kernels take the matrix view of x and the output
	// ([rows, in]/[rows, outF]), so no 2-D view tensors are built.
	out := g.node("linear", g.alloc(outShape...), parents...)
	tensor.MatMulTransBInto(out.Data, x.Data, w.Data)
	if b != nil {
		tensor.AddRowVectorIn(out.Data, b.Data)
	}
	if g.inference {
		return out
	}
	out.backward = func() {
		if g.needs(x) {
			t := g.alloc(xs...)
			tensor.MatMulInto(t, out.Grad, w.Data)
			g.accum(x, t)
			g.free(t)
		}
		if g.needs(w) {
			t := g.allocZero(outF, in)
			tensor.MatMulTransAAddInto(t, out.Grad, x.Data)
			g.accum(w, t)
			g.free(t)
		}
		if b != nil && g.needs(b) {
			t := g.alloc(outF)
			tensor.SumRowsInto(t, out.Grad)
			g.accum(b, t)
			g.free(t)
		}
	}
	return out
}

// BMM performs a batched matrix multiply on 3-D tensors:
// a [G,m,k] @ b [G,k,n] -> [G,m,n].
func (g *Graph) BMM(a, b *Value) *Value {
	as, bs := a.Data.Shape(), b.Data.Shape()
	if len(as) != 3 || len(bs) != 3 || as[0] != bs[0] || as[2] != bs[1] {
		panic(fmt.Sprintf("autograd: BMM shapes %v x %v invalid", as, bs))
	}
	G, m, n := as[0], as[1], bs[2]
	out := g.node("bmm", g.alloc(G, m, n), a, b)
	tensor.BMMInto(out.Data, a.Data, b.Data)
	if g.inference {
		return out
	}
	out.backward = func() {
		needA, needB := g.needs(a), g.needs(b)
		var ga, gb *tensor.Tensor
		if needA {
			ga = g.alloc(as...)
			tensor.BMMTransBInto(ga, out.Grad, b.Data)
		}
		if needB {
			gb = g.allocZero(bs...)
			tensor.BMMTransAAddInto(gb, a.Data, out.Grad)
		}
		if needA {
			g.accum(a, ga)
			g.free(ga)
		}
		if needB {
			g.accum(b, gb)
			g.free(gb)
		}
	}
	return out
}

// ReLU applies max(0,x).
func (g *Graph) ReLU(x *Value) *Value {
	out := g.node("relu", g.alloc(x.Data.Shape()...), x)
	tensor.ApplyInto(out.Data, x.Data, func(v float32) float32 {
		if v > 0 {
			return v
		}
		return 0
	})
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.alloc(x.Data.Shape()...)
		xd, gy, gd := x.Data.Data(), out.Grad.Data(), gx.Data()
		for i := range gd {
			if xd[i] > 0 {
				gd[i] = gy[i]
			} else {
				gd[i] = 0
			}
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

const (
	geluC = 0.7978845608028654 // sqrt(2/pi)
	geluA = 0.044715
)

// GELU applies the tanh approximation of the Gaussian error linear unit.
func (g *Graph) GELU(x *Value) *Value {
	out := g.node("gelu", g.alloc(x.Data.Shape()...), x)
	tensor.ApplyInto(out.Data, x.Data, func(v float32) float32 {
		f := float64(v)
		return float32(0.5 * f * (1 + math.Tanh(geluC*(f+geluA*f*f*f))))
	})
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.alloc(x.Data.Shape()...)
		xd, gy, gd := x.Data.Data(), out.Grad.Data(), gx.Data()
		for i := range gd {
			f := float64(xd[i])
			u := geluC * (f + geluA*f*f*f)
			t := math.Tanh(u)
			du := geluC * (1 + 3*geluA*f*f)
			d := 0.5*(1+t) + 0.5*f*(1-t*t)*du
			gd[i] = gy[i] * float32(d)
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// Tanh applies the hyperbolic tangent elementwise (used by the C&W change
// of variables).
func (g *Graph) Tanh(x *Value) *Value {
	out := g.node("tanh", g.alloc(x.Data.Shape()...), x)
	tensor.ApplyInto(out.Data, x.Data, func(v float32) float32 { return float32(math.Tanh(float64(v))) })
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.alloc(x.Data.Shape()...)
		yd, gy, gd := out.Data.Data(), out.Grad.Data(), gx.Data()
		for i := range gd {
			gd[i] = gy[i] * (1 - yd[i]*yd[i])
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// Affine applies alpha*x + beta elementwise for constants.
func (g *Graph) Affine(x *Value, alpha, beta float32) *Value {
	out := g.node("affine", g.alloc(x.Data.Shape()...), x)
	tensor.ApplyInto(out.Data, x.Data, func(v float32) float32 { return alpha*v + beta })
	if g.inference {
		return out
	}
	out.backward = func() {
		t := g.alloc(out.Grad.Shape()...)
		tensor.ScaleInto(t, out.Grad, alpha)
		g.accum(x, t)
		g.free(t)
	}
	return out
}

// SoftmaxLastDim applies a softmax over the last dimension.
func (g *Graph) SoftmaxLastDim(x *Value) *Value {
	xs := x.Data.Shape()
	cols := xs[len(xs)-1]
	rows := x.Data.Len() / cols
	probs := g.alloc(xs...)
	tensor.SoftmaxRowsInto(probs, x.Data)
	out := g.node("softmax", probs, x)
	if g.inference {
		return out
	}
	out.backward = func() {
		gx := g.alloc(xs...)
		p, gy, gd := out.Data.Data(), out.Grad.Data(), gx.Data()
		for r := 0; r < rows; r++ {
			off := r * cols
			var dot float32
			for c := 0; c < cols; c++ {
				dot += gy[off+c] * p[off+c]
			}
			for c := 0; c < cols; c++ {
				gd[off+c] = p[off+c] * (gy[off+c] - dot)
			}
		}
		g.accum(x, gx)
		g.free(gx)
	}
	return out
}

// Sum reduces all elements to a scalar.
func (g *Graph) Sum(x *Value) *Value {
	out := g.node("sum", g.scalar(float32(tensor.Sum(x.Data))), x)
	if g.inference {
		return out
	}
	out.backward = func() {
		t := g.alloc(x.Data.Shape()...)
		t.Fill(out.Grad.Data()[0])
		g.accum(x, t)
		g.free(t)
	}
	return out
}

// Mean reduces all elements to their scalar mean.
func (g *Graph) Mean(x *Value) *Value {
	n := float32(x.Data.Len())
	out := g.node("mean", g.scalar(float32(tensor.Mean(x.Data))), x)
	if g.inference {
		return out
	}
	out.backward = func() {
		t := g.alloc(x.Data.Shape()...)
		t.Fill(out.Grad.Data()[0] / n)
		g.accum(x, t)
		g.free(t)
	}
	return out
}

// scalar allocates a 1-element tensor holding v from the graph's arena.
func (g *Graph) scalar(v float32) *tensor.Tensor {
	t := g.alloc(1)
	t.Data()[0] = v
	return t
}
