package models

import (
	"testing"

	"pelta/internal/autograd"
	"pelta/internal/tensor"
)

// inferenceModels returns one small instance of each of the four
// architecture families: the pooled-engine trio plus MobileViT.
func inferenceModels(t *testing.T) []Model {
	return append(pooledModels(t), NewMobileViT(SmallMobileViT("inf-mvit", 7, 16), tensor.NewRNG(78)))
}

// TestInferenceIdentityLogits: the tape-free pass is a mode of the one
// executor, so Logits/Predict (heap graph) and a pooled inference arena
// across three Release cycles return the taped pass's logits bit for bit,
// for every model family, at one kernel worker and at several — and leave
// every pending Param.Grad as they found it.
func TestInferenceIdentityLogits(t *testing.T) {
	x := tensor.NewRNG(124).Uniform(0, 1, 3, 3, 16, 16)
	for _, workers := range []int{1, 4} {
		restore := tensor.SetKernelWorkers(workers)
		for _, m := range inferenceModels(t) {
			taped := autograd.NewGraph()
			_, ref := m.Forward(taped, taped.Input(x, "x"))
			want := ref.Data

			params := m.Params()
			for _, p := range params {
				p.Grad.Fill(0.5)
			}
			if got := Logits(m, x); !got.AllClose(want, 0) {
				t.Errorf("%s, %d workers: Logits differs from the taped pass", m.Name(), workers)
			}
			pred, ref2 := Predict(m, x), tensor.ArgmaxRows(want)
			for i := range pred {
				if pred[i] != ref2[i] {
					t.Errorf("%s, %d workers: Predict[%d] = %d, taped argmax %d", m.Name(), workers, i, pred[i], ref2[i])
				}
			}
			g := autograd.NewGraphWithPool(tensor.NewPool())
			g.SetInference(true)
			for pass := 0; pass < 3; pass++ {
				g.Release()
				_, logits := m.Forward(g, g.Input(x, "x"))
				if !logits.Data.AllClose(want, 0) {
					t.Errorf("%s, %d workers, arena pass %d: logits differ from the taped pass", m.Name(), workers, pass)
				}
			}
			for _, p := range params {
				for _, v := range p.Grad.Data() {
					if v != 0.5 {
						t.Fatalf("%s: inference passes moved the gradient of %s", m.Name(), p.Name)
					}
				}
				p.ZeroGrad()
			}
		}
		tensor.SetKernelWorkers(restore)
	}
}
