package models

import (
	"pelta/internal/autograd"
	"pelta/internal/tensor"
)

// Model is a classifier whose computational graph Pelta can shield.
type Model interface {
	// Name returns the architecture label, e.g. "ViT-L/16".
	Name() string
	// Forward records one batched pass into g for input x [B,C,H,W] and
	// returns the shield-boundary vertex and the logits [B,classes].
	Forward(g *autograd.Graph, x *autograd.Value) (boundary, logits *autograd.Value)
	// Params returns all trainable parameters.
	Params() []*autograd.Param
	// ShieldedParams returns the parameters inside the Pelta shield region
	// (the model's shallowest transformations, §V-A).
	ShieldedParams() []*autograd.Param
	// InputShape returns [C,H,W].
	InputShape() []int
	// Classes returns the number of output classes.
	Classes() int
	// SetTraining toggles training-time behaviour (batch statistics).
	SetTraining(bool)
}

// Footprint describes the worst-case enclave memory cost of shielding a
// model (Table I): weights, one sample's intermediate activations, and the
// gradients of both, all fp32, none flushed before the pass completes.
type Footprint struct {
	WeightBytes     int64
	ActivationBytes int64
	GradientBytes   int64 // gradients of shielded weights and activations
	TotalModelBytes int64 // fp32 size of all model parameters
}

// TEEBytes is the total enclave memory required in the worst case.
func (f Footprint) TEEBytes() int64 {
	return f.WeightBytes + f.ActivationBytes + f.GradientBytes
}

// Portion is the shielded fraction of the model's total memory, the
// "Shielded portion" column of Table I.
func (f Footprint) Portion() float64 {
	if f.TotalModelBytes == 0 {
		return 0
	}
	return float64(f.TEEBytes()) / float64(f.TotalModelBytes)
}

// Logits runs a plain inference pass — the graph's inference mode: no
// backward closures, no Param.Grad — and returns the logits tensor.
func Logits(m Model, x *tensor.Tensor) *tensor.Tensor {
	g := autograd.NewGraph()
	g.SetInference(true)
	_, logits := m.Forward(g, g.Input(x, "x"))
	return logits.Data
}

// Predict returns the argmax class of every sample in the batch.
func Predict(m Model, x *tensor.Tensor) []int {
	return tensor.ArgmaxRows(Logits(m, x))
}

// Accuracy returns the fraction of samples classified as their label.
func Accuracy(m Model, x *tensor.Tensor, y []int) float64 {
	pred := Predict(m, x)
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	if len(y) == 0 {
		return 0
	}
	return float64(correct) / float64(len(y))
}
