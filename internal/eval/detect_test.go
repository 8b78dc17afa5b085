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

// detectService builds a service over n stub replicas that logs the
// verdicts of a detector configured by dc.
func detectService(t *testing.T, shape []int, n, maxBatch int, dc detect.Config) *serve.Service {
	t.Helper()
	pool, err := serve.NewReplicaPool(n, func(int) (serve.Replica, error) {
		return &detectStubReplica{shape: shape}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewService(pool, serve.Config{
		MaxBatch: maxBatch,
		Detect:   &serve.DetectConfig{Config: dc, Action: serve.DetectLog},
	})
}

// goldenStreams builds the seeded golden trace: benign clients drawn from
// synthetic CIFAR plus one recorded APGD run and one recorded PGD run.
func goldenStreams(t *testing.T) []DetectStream {
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

// goldenDetectTable is the golden trace's detection table, pinned byte for
// byte: a drift in the detector, the recorded attacks or the replay order
// shows up here even when both service shapes drift together.
const goldenDetectTable = `family   | streams | queries | served | shed | flagged |   rate
benign   |       8 |     104 |    104 |    0 |       0 |   0.0%
apgd     |       1 |      96 |     96 |    0 |      88 |  91.7%
pgd      |       1 |      94 |     94 |    0 |      90 |  95.7%
detection rate (probe queries): 93.7%
benign FPR:                     0.0%
`

// TestDetectGoldenTrace is the detection-quality gate: on the seeded
// benign+APGD+PGD trace the detector must flag at least 90% of the probe
// queries, in aggregate and per family, while false-positive-flagging at
// most 5% of the benign ones — and the rendered per-family table must equal
// the golden one under two different replica and batch configurations.
func TestDetectGoldenTrace(t *testing.T) {
	streams := goldenStreams(t)
	var total int
	for _, st := range streams {
		total += len(st.Queries)
	}
	// 8×13 benign queries plus up to 96 recorded queries per probe family.
	if total < 285 || total > 305 {
		t.Fatalf("golden trace has %d queries, want ~300", total)
	}

	for run, setup := range []struct{ replicas, maxBatch int }{{1, 4}, {4, 2}} {
		s := detectService(t, []int{3, 16, 16}, setup.replicas, setup.maxBatch, detect.Config{})
		sum, err := ReplayDetect(s, streams)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		out := sum.Render()
		if out != goldenDetectTable {
			t.Fatalf("run %d (%d replicas, batch %d): detection table drifted:\n%s--- want ---\n%s", run, setup.replicas, setup.maxBatch, out, goldenDetectTable)
		}
		for _, l := range sum.Families {
			if r, ok := l.Rate(); l.Probe && (!ok || r < 0.90) {
				t.Fatalf("run %d: %s detection rate %.3f (ok=%v), want >= 0.90\n%s", run, l.Family, r, ok, out)
			}
		}
		det, ok := sum.DetectionRate()
		if !ok || det < 0.90 {
			t.Fatalf("run %d: detection rate %.3f (ok=%v), want >= 0.90\n%s", run, det, ok, out)
		}
		fpr, ok := sum.BenignFPR()
		if !ok || fpr > 0.05 {
			t.Fatalf("run %d: benign FPR %.3f (ok=%v), want <= 0.05\n%s", run, fpr, ok, out)
		}
	}
}

// TestReplayDetectValidation pins the stream preconditions.
func TestReplayDetectValidation(t *testing.T) {
	s := detectService(t, []int{1, 2, 2}, 1, 1, detect.Config{})
	defer s.Close()
	if _, err := ReplayDetect(s, nil); err == nil {
		t.Fatal("empty stream set must error")
	}
	mk := func(c string) DetectStream {
		return DetectStream{Client: c, Family: "benign", Queries: []*tensor.Tensor{tensor.New(1, 2, 2)}}
	}
	if _, err := ReplayDetect(s, []DetectStream{mk("")}); err == nil {
		t.Fatal("empty client identity must error")
	}
	if _, err := ReplayDetect(s, []DetectStream{mk("a"), mk("a")}); err == nil {
		t.Fatal("duplicate client identity must error")
	}
}

// TestReplayDetectPerClient pins that verdicts are per client: each of two
// probe clients replaying its own near-duplicate family is flagged, while
// two benign clients replaying the very same fresh samples — each stream a
// duplicate of the other — flag neither themselves nor each other.
func TestReplayDetectPerClient(t *testing.T) {
	s := detectService(t, []int{1, 2, 2}, 1, 2, detect.Config{K: 1, MatchM: 2, MatchW: 4})
	defer s.Close()

	// query i of a stream: a seeded random sample, or for a probe a fixed
	// pattern (shifted by off) plus a wiggle well inside the match threshold.
	query := func(i int, probe bool, off float32) *tensor.Tensor {
		x := tensor.New(1, 2, 2)
		rng := tensor.NewRNG(int64(1000 + i))
		for j, d := 0, x.Data(); j < len(d); j++ {
			d[j] = 0.5 + 0.3*float32(rng.NormFloat64())
			if probe {
				d[j] = 0.5 + 0.1*float32(j) + 0.0005*float32(i%3) + off
			}
		}
		return x
	}
	streams := []DetectStream{
		{Client: "p0", Family: "apgd", Probe: true},
		{Client: "p1", Family: "pgd", Probe: true},
		{Client: "b0", Family: "benign"},
		{Client: "b1", Family: "benign"},
	}
	for c := range streams {
		for i := 0; i < 10; i++ {
			streams[c].Queries = append(streams[c].Queries, query(i, streams[c].Probe, 0.4*float32(c)))
		}
	}

	sum, err := ReplayDetect(s, streams)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sum.Families {
		if l.Queries != 10*l.Streams || l.Served != l.Queries {
			t.Fatalf("family line %+v: want 10 queries per stream, all served", l)
		}
		r, _ := l.Rate()
		if l.Probe && r < 0.5 {
			t.Fatalf("%s: detection rate %.2f, want >= 0.5 on a pure duplicate stream", l.Family, r)
		}
		if !l.Probe && (l.Streams != 2 || l.Flagged != 0) {
			t.Fatalf("benign line %+v: want 2 streams, none flagged", l)
		}
	}
	if len(sum.Families) != 3 {
		t.Fatalf("%d family lines, want benign, apgd, pgd", len(sum.Families))
	}
}

// TestSummarizeDetectEmpty pins the empty-trace rendering convention: no
// queries renders "n/a", never 0%.
func TestSummarizeDetectEmpty(t *testing.T) {
	out := summarize(nil).Render()
	if !strings.Contains(out, "detection rate (probe queries): n/a") ||
		!strings.Contains(out, "benign FPR:                     n/a") {
		t.Fatalf("empty summary must render n/a rates, got:\n%s", out)
	}
	if strings.Contains(out, "0.0%") {
		t.Fatalf("empty summary must not render 0%% rates, got:\n%s", out)
	}
}

// TestSummarizeDetectTable pins the family grouping and rendering on
// hand-built stream lines: benign rows first, probe families in name order,
// per-line rates, and zero-query families as n/a.
func TestSummarizeDetectTable(t *testing.T) {
	s := summarize([]DetectFamilyLine{
		{Family: "pgd", Probe: true, Streams: 1, Queries: 10, Served: 10, Flagged: 9},
		{Family: "benign", Streams: 1, Queries: 20, Served: 20, Flagged: 1},
		{Family: "apgd", Probe: true, Streams: 1, Queries: 10, Served: 8, Shed: 2, Flagged: 8},
		{Family: "benign", Streams: 1, Queries: 20, Served: 20, Flagged: 0},
		{Family: "fgsm", Probe: true, Streams: 1},
	})
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
		if !st.Probe || len(st.Queries) == 0 {
			t.Fatalf("family %s: probe=%v with %d queries", st.Family, st.Probe, len(st.Queries))
		}
		if len(st.Queries) > 12 {
			t.Fatalf("family %s: %d queries, cap is 12", st.Family, len(st.Queries))
		}
	}
	if _, err := BuildDetectStreams(m, d, DetectTraceConfig{Families: []string{"nope"}, Eps: 0.05, Steps: 2}); err == nil {
		t.Fatal("unknown family must error")
	}
	// FGSM is single-query and therefore undetectable by design: the
	// honest table row, not a bug.
	if n := len(streams[1].Queries); n != 1 {
		t.Fatalf("fgsm recorded %d queries, want 1", n)
	}
}
