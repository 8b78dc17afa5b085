package core

import (
	"slices"
	"strings"
	"testing"

	"pelta/internal/autograd"
	"pelta/internal/models"
	"pelta/internal/tee"
	"pelta/internal/tensor"
)

// inferenceModels returns one small instance of each of the four
// architecture families.
func inferenceModels() []models.Model {
	rng := tensor.NewRNG(79)
	return []models.Model{
		models.NewViT(models.SmallViT("inf-vit", 5, 16, 4), rng),
		models.NewMobileViT(models.SmallMobileViT("inf-mvit", 5, 16), rng),
		models.NewResNet(models.ResNetConfig{
			Name: "inf-rn", InputC: 3, InputHW: 16,
			Widths: [3]int{4, 8, 8}, BlocksPerStep: 1, Classes: 5,
		}, rng),
		models.NewBiT(models.BiTConfig{
			Name: "inf-bit", InputC: 3, InputHW: 16, StemK: 3, StemStride: 1,
			StageBlocks: []int{1, 1}, BaseWidth: 8, WidthFactor: 1, Groups: 4, Classes: 5,
		}, rng),
	}
}

// shieldedForward records a forward-only pass of m on g (taped or in
// inference mode, as g is set), shields it into a fresh enclave as pass 1
// and returns the logits, the enclave's traffic and the report.
func shieldedForward(t *testing.T, m models.Model, g *autograd.Graph, x *tensor.Tensor) (*tensor.Tensor, tee.Metrics, *ShieldReport) {
	t.Helper()
	boundary, logits := m.Forward(g, g.Input(x, "x"))
	out := logits.Data.Clone()
	enclave, _, err := tee.NewEnclave(m.Name(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sel := []*autograd.Value{boundary}
	report, err := Protect(g, enclave, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := VerifyScrubbed(sel); bad != nil {
		t.Fatalf("%s: vertex %v escaped the shield", m.Name(), bad)
	}
	return out, enclave.Metrics(), report
}

// TestInferenceIdentityShielded: a shielded inference pass is the taped
// forward-only pass minus the tape. Same logits bit for bit, same world
// switches, same bytes across the boundary and the same enclave keys — on a
// heap graph, on an arena across three Release cycles and through
// ShieldedModel.Query(x, nil) — for every model family, at one kernel
// worker and at several.
func TestInferenceIdentityShielded(t *testing.T) {
	x := tensor.NewRNG(125).Uniform(0, 1, 2, 3, 16, 16)
	for _, workers := range []int{1, 4} {
		restore := tensor.SetKernelWorkers(workers)
		for _, m := range inferenceModels() {
			wantLogits, wantTraffic, wantReport := shieldedForward(t, m, autograd.NewGraph(), x)
			same := func(where string, logits *tensor.Tensor, traffic tee.Metrics, report *ShieldReport) {
				t.Helper()
				if !logits.AllClose(wantLogits, 0) {
					t.Errorf("%s, %d workers, %s: logits differ from the taped pass", m.Name(), workers, where)
				}
				if traffic.WorldSwitches != wantTraffic.WorldSwitches ||
					traffic.BytesIn+traffic.BytesOut != wantTraffic.BytesIn+wantTraffic.BytesOut {
					t.Errorf("%s, %d workers, %s: enclave traffic %d switches / %d B, taped pass %d / %d",
						m.Name(), workers, where, traffic.WorldSwitches, traffic.BytesIn+traffic.BytesOut,
						wantTraffic.WorldSwitches, wantTraffic.BytesIn+wantTraffic.BytesOut)
				}
				if !slices.Equal(report.Keys, wantReport.Keys) || report.Bytes != wantReport.Bytes {
					t.Errorf("%s, %d workers, %s: stored %v (%d B), taped pass %v (%d B)",
						m.Name(), workers, where, report.Keys, report.Bytes, wantReport.Keys, wantReport.Bytes)
				}
			}

			heap := autograd.NewGraph()
			heap.SetInference(true)
			logits, traffic, report := shieldedForward(t, m, heap, x)
			same("heap graph", logits, traffic, report)

			arena := autograd.NewGraphWithPool(tensor.NewPool())
			arena.SetInference(true)
			for pass := 0; pass < 3; pass++ {
				arena.Release()
				logits, traffic, report = shieldedForward(t, m, arena, x)
				same("arena", logits, traffic, report)
			}

			sm, err := NewShieldedModel(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 1; pass <= 3; pass++ {
				before := sm.Enclave().Metrics()
				res, err := sm.Query(x, nil)
				if err != nil {
					t.Fatal(err)
				}
				after := sm.Enclave().Metrics()
				after.WorldSwitches -= before.WorldSwitches
				after.BytesIn -= before.BytesIn
				after.BytesOut -= before.BytesOut
				if pass > 1 {
					// Keys are namespaced by pass; only the first matches pass 1.
					res.Report.Keys = wantReport.Keys
				}
				same("Query", res.Logits, after, res.Report)
			}
		}
		tensor.SetKernelWorkers(restore)
	}
}

// TestForwardOnlyQueryLeavesParamGradsAlone: serving and probing must not
// perturb the defender's optimizer state. A forward-only Query (and Predict)
// neither clears pending parameter gradients nor ships them — shielded or
// not — into the enclave; a gradient-producing Query keeps clearing them.
func TestForwardOnlyQueryLeavesParamGradsAlone(t *testing.T) {
	rng := tensor.NewRNG(8)
	m := models.NewViT(models.SmallViT("vit-pending", 3, 8, 4), rng)
	sm, err := NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.Uniform(0, 1, 2, 3, 8, 8)
	params := m.Params()
	for _, p := range params {
		p.Grad.Fill(0.5)
	}
	res, err := sm.Query(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Predict(x); err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Report.Keys {
		if strings.Contains(k, "grad") {
			t.Errorf("forward-only pass stored a gradient under %q", k)
		}
	}
	for _, p := range params {
		for _, v := range p.Grad.Data() {
			if v != 0.5 {
				t.Fatalf("forward-only Query moved the pending gradient of %s to %v", p.Name, v)
			}
		}
	}

	if _, err := sm.Query(x, CrossEntropyLoss([]int{0, 1})); err != nil {
		t.Fatal(err)
	}
	for _, p := range params {
		for _, v := range p.Grad.Data() {
			if v != 0 {
				t.Fatalf("gradient-producing Query left %v in the gradient of %s", v, p.Name)
			}
		}
	}
}
