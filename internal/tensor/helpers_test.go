package tensor

// Allocating shorthands for the tests: each is New + the *Into kernel under
// test, so the package itself exports one kernel family only.

func matMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

func matMulTransposedB(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(0))
	MatMulTransBInto(out, a, b)
	return out
}

func matMulTransposedA(a, b *Tensor) *Tensor {
	out := New(a.Dim(1), b.Dim(1))
	MatMulTransAInto(out, a, b)
	return out
}

func transpose(a *Tensor) *Tensor {
	out := New(a.Dim(1), a.Dim(0))
	transposeScatterBias(out.data, a.data, nil, a.Dim(1), a.Dim(0))
	return out
}

func conv2d(x, w, bias *Tensor, stride, pad int) *Tensor {
	oh, ow := ConvOut(x.Dim(2), w.Dim(2), stride, pad), ConvOut(x.Dim(3), w.Dim(3), stride, pad)
	out := New(x.Dim(0), w.Dim(0), oh, ow)
	Conv2dInto(nil, out, x, w, bias, stride, pad)
	return out
}

func convTranspose2d(x, w *Tensor, stride, pad int) *Tensor {
	oh := (x.Dim(2)-1)*stride - 2*pad + w.Dim(2)
	ow := (x.Dim(3)-1)*stride - 2*pad + w.Dim(3)
	out := New(x.Dim(0), w.Dim(1), oh, ow)
	ConvTranspose2dInto(nil, out, x, w, stride, pad)
	return out
}

func im2col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	oh, ow := ConvOut(x.Dim(1), kh, stride, pad), ConvOut(x.Dim(2), kw, stride, pad)
	cols := New(oh*ow, x.Dim(0)*kh*kw)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols
}
