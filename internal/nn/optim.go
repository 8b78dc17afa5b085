package nn

import (
	"math"

	"pelta/internal/autograd"
	"pelta/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	params []*autograd.Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   []*tensor.Tensor
}

// NewAdam creates an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(params []*autograd.Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Data.Shape()...)
		a.v[i] = tensor.New(p.Data.Shape()...)
	}
	return a
}

// Reset returns the optimizer to the state NewAdam leaves: zero moments and
// step count, reusing the moment buffers.
func (a *Adam) Reset() {
	a.t = 0
	for i := range a.m {
		a.m[i].Zero()
		a.v[i].Zero()
	}
}

// Step applies one update from the accumulated gradients; clearing them is
// the caller's (models.Trainer clears every gradient of the model at once).
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v, g := a.m[i].Data(), a.v[i].Data(), p.Grad.Data()
		w := p.Data.Data()
		for j := range g {
			gj := float64(g[j])
			mj := a.beta1*float64(m[j]) + (1-a.beta1)*gj
			vj := a.beta2*float64(v[j]) + (1-a.beta2)*gj*gj
			m[j], v[j] = float32(mj), float32(vj)
			w[j] -= float32(a.lr * (mj / bc1) / (math.Sqrt(vj/bc2) + a.eps))
		}
	}
}
