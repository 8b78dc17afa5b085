package eval

import (
	"strings"
	"testing"

	"pelta/internal/dataset"
	"pelta/internal/detect"
	"pelta/internal/models"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

// detectStubReplica answers fixed logits: detection quality is about the
// query stream, not the answers.
type detectStubReplica struct{ shape []int }

func (r *detectStubReplica) Classes() int      { return 10 }
func (r *detectStubReplica) InputShape() []int { return r.shape }
func (r *detectStubReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.New(x.Dim(0), 10), nil
}

// detectService builds a detection-enabled service over n stub replicas.
func detectService(t *testing.T, shape []int, n, maxBatch int) *serve.Service {
	t.Helper()
	pool, err := serve.NewReplicaPool(n, func(int) (serve.Replica, error) {
		return &detectStubReplica{shape: shape}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewService(pool, serve.Config{
		MaxBatch: maxBatch,
		Detect:   &serve.DetectConfig{Action: serve.DetectLog},
	})
}

// goldenStreams builds the seeded golden trace: benign clients drawn from
// synthetic CIFAR plus one recorded APGD run and one recorded PGD run.
func goldenStreams(t *testing.T) []serve.QueryStream {
	t.Helper()
	m := models.NewViT(models.SmallViT("vit-detect", 10, 16, 4), tensor.NewRNG(1))
	d, _ := dataset.Generate(dataset.Config{
		Name: "detect-golden", Classes: 10, HW: 16,
		TrainN: 140, ValN: 1, Seed: 7, Noise: 0.06, Waves: 3,
	})
	streams, err := BuildDetectStreams(m, d, DetectTraceConfig{
		Families:      []string{"apgd", "pgd"},
		ProbeQueries:  96,
		BenignClients: 8,
		BenignQueries: 13,
		Eps:           0.1,
		Steps:         94,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

// TestDetectGoldenTrace is the detection-quality gate: on the seeded
// benign+APGD+PGD trace the detector must flag at least 90% of the probe
// queries, in aggregate and per family, while false-positive-flagging at
// most 5% of the benign ones — and the rendered per-family table must be
// bit-identical across two runs with different replica and batch
// configurations.
func TestDetectGoldenTrace(t *testing.T) {
	streams := goldenStreams(t)
	var total int
	for _, st := range streams {
		total += len(st.Items)
	}
	// 8×13 benign queries plus up to 96 recorded queries per probe family.
	if total < 285 || total > 305 {
		t.Fatalf("golden trace has %d queries, want ~300", total)
	}

	render := make([]string, 2)
	for run, setup := range []struct{ replicas, maxBatch int }{{1, 4}, {4, 2}} {
		s := detectService(t, []int{3, 16, 16}, setup.replicas, setup.maxBatch)
		rep, err := serve.RunDetectLoad(s, streams, serve.DetectLoadConfig{})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		sum := SummarizeDetect(rep)
		render[run] = sum.Render()
		for _, l := range sum.Families {
			if r, ok := l.Rate(); l.Probe && (!ok || r < 0.90) {
				t.Fatalf("run %d: %s detection rate %.3f (ok=%v), want >= 0.90\n%s", run, l.Family, r, ok, render[run])
			}
		}

		det, ok := rep.DetectionRate()
		if !ok || det < 0.90 {
			t.Fatalf("run %d: detection rate %.3f (ok=%v), want >= 0.90\n%s", run, det, ok, render[run])
		}
		fpr, ok := rep.BenignFPR()
		if !ok || fpr > 0.05 {
			t.Fatalf("run %d: benign FPR %.3f (ok=%v), want <= 0.05\n%s", run, fpr, ok, render[run])
		}
	}
	if render[0] != render[1] {
		t.Fatalf("detection table differs across service configurations:\n--- run 0 ---\n%s--- run 1 ---\n%s", render[0], render[1])
	}
}

// TestSummarizeDetectEmpty pins the empty-trace rendering convention: no
// queries renders "n/a", never 0%.
func TestSummarizeDetectEmpty(t *testing.T) {
	out := SummarizeDetect(&serve.DetectReport{}).Render()
	if !strings.Contains(out, "detection rate (probe queries): n/a") ||
		!strings.Contains(out, "benign FPR:                     n/a") {
		t.Fatalf("empty report must render n/a rates, got:\n%s", out)
	}
	if strings.Contains(out, "0.0%") {
		t.Fatalf("empty report must not render 0%% rates, got:\n%s", out)
	}
}

// TestSummarizeDetectTable pins the family grouping and rendering on a
// hand-built report: benign rows first, probe families in name order,
// per-line rates, and zero-query families as n/a.
func TestSummarizeDetectTable(t *testing.T) {
	rep := &serve.DetectReport{Streams: []serve.StreamReport{
		{Client: "p1", Family: "pgd", Probe: true, Sent: 10, Served: 10, Flagged: 9},
		{Client: "b1", Family: "benign", Sent: 20, Served: 20, Flagged: 1},
		{Client: "a1", Family: "apgd", Probe: true, Sent: 10, Served: 8, Shed: 2, Flagged: 8},
		{Client: "b2", Family: "benign", Sent: 20, Served: 20, Flagged: 0},
		{Client: "f1", Family: "fgsm", Probe: true},
	}}
	s := SummarizeDetect(rep)
	got := make([]string, len(s.Families))
	for i, l := range s.Families {
		got[i] = l.Family
	}
	want := []string{"benign", "apgd", "fgsm", "pgd"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("family order %v, want %v", got, want)
		}
	}
	if s.Families[0].Streams != 2 || s.Families[0].Queries != 40 || s.Families[0].Flagged != 1 {
		t.Fatalf("benign line aggregates wrong: %+v", s.Families[0])
	}
	out := s.Render()
	for _, want := range []string{
		"pgd      |       1 |      10 |     10 |    0 |       9 |  90.0%",
		"fgsm     |       1 |       0 |      0 |    0 |       0 |    n/a",
		"detection rate (probe queries): 85.0%",
		"benign FPR:                     2.5%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestBuildDetectStreamsFamilies checks every supported family records a
// non-empty probe stream (and unknown names error).
func TestBuildDetectStreamsFamilies(t *testing.T) {
	m := models.NewViT(models.SmallViT("vit-fams", 10, 16, 4), tensor.NewRNG(2))
	d, _ := dataset.Generate(dataset.Config{
		Name: "detect-fams", Classes: 10, HW: 16,
		TrainN: 20, ValN: 1, Seed: 9, Noise: 0.06, Waves: 3,
	})
	streams, err := BuildDetectStreams(m, d, DetectTraceConfig{
		Families:      []string{"fgsm", "pgd", "apgd", "saga", "square"},
		ProbeQueries:  12,
		BenignClients: 1,
		BenignQueries: 2,
		Eps:           0.05,
		Steps:         4,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 6 {
		t.Fatalf("%d streams, want 1 benign + 5 probe", len(streams))
	}
	for _, st := range streams[1:] {
		if !st.Probe || len(st.Items) == 0 {
			t.Fatalf("family %s: probe=%v with %d items", st.Family, st.Probe, len(st.Items))
		}
		if len(st.Items) > 12 {
			t.Fatalf("family %s: %d items, cap is 12", st.Family, len(st.Items))
		}
	}
	if _, err := BuildDetectStreams(m, d, DetectTraceConfig{Families: []string{"nope"}, Eps: 0.05, Steps: 2}); err == nil {
		t.Fatal("unknown family must error")
	}
	// FGSM is single-query and therefore undetectable by design: the
	// honest table row, not a bug.
	if n := len(streams[1].Items); n != 1 {
		t.Fatalf("fgsm recorded %d queries, want 1", n)
	}
	_ = detect.Config{} // the harness scores the serve-embedded detector
}
