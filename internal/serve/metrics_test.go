package serve_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pelta/internal/eval"
	"pelta/internal/obs"
	"pelta/internal/serve"
)

// TestP2QuantileTracksExactQuantiles validates the streaming sketch against
// the exact sorted-slice quantiles of eval.Quantiles on the kind of
// long-tailed distribution serving latencies follow.
func TestP2QuantileTracksExactQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	vals := make([]float64, n)
	p50 := serve.NewP2Quantile(0.50)
	p95 := serve.NewP2Quantile(0.95)
	p99 := serve.NewP2Quantile(0.99)
	for i := range vals {
		// Log-normal-ish latency: bulk around 1–3ms with a heavy tail.
		v := math.Exp(rng.NormFloat64()*0.5) * 2
		vals[i] = v
		p50.Add(v)
		p95.Add(v)
		p99.Add(v)
	}
	exact := eval.Quantiles(vals)
	for _, tt := range []struct {
		name         string
		got, want    float64
		relTolerance float64
	}{
		{"p50", p50.Value(), exact.P50, 0.05},
		{"p95", p95.Value(), exact.P95, 0.10},
		{"p99", p99.Value(), exact.P99, 0.15},
	} {
		rel := math.Abs(tt.got-tt.want) / tt.want
		if rel > tt.relTolerance {
			t.Errorf("%s: sketch %.4f vs exact %.4f (rel err %.3f > %.2f)",
				tt.name, tt.got, tt.want, rel, tt.relTolerance)
		}
	}
	if p50.Count() != n {
		t.Errorf("count %d, want %d", p50.Count(), n)
	}
}

// TestP2QuantileSmallCounts pins the exact-below-5-samples regime.
func TestP2QuantileSmallCounts(t *testing.T) {
	q := serve.NewP2Quantile(0.5)
	if q.Value() != 0 {
		t.Fatal("empty sketch must report 0")
	}
	q.Add(3)
	if q.Value() != 3 {
		t.Fatalf("one sample: %v", q.Value())
	}
	q.Add(1)
	// Two samples interpolate exactly as eval.Quantiles does.
	if got, want := q.Value(), eval.Quantile([]float64{1, 3}, 0.5); got != want {
		t.Fatalf("two samples: %v, want %v", got, want)
	}
	q.Add(2)
	// Median of {1,2,3}: exact.
	if q.Value() != 2 {
		t.Fatalf("three samples: %v, want 2", q.Value())
	}
}

// TestP2QuantileExtremeMarkers exercises the post-warm-up extreme-marker
// paths (x < q[0] and x ≥ q[4]) and cross-checks the median against the
// exact eval.Quantiles on the same stream.
func TestP2QuantileExtremeMarkers(t *testing.T) {
	q := serve.NewP2Quantile(0.5)
	vals := []float64{10, 20, 30, 40, 50} // warm-up: markers exactly 10..50
	for _, v := range vals {
		q.Add(v)
	}
	// Below the current minimum marker: q[0] must absorb it.
	vals = append(vals, 1)
	q.Add(1)
	// At and above the maximum marker (x >= q[4] covers equality too).
	vals = append(vals, 50, 99)
	q.Add(50)
	q.Add(99)
	if got := q.Count(); got != 8 {
		t.Fatalf("count %d, want 8", got)
	}
	exact := eval.Quantile(vals, 0.5)
	got := q.Value()
	if math.Abs(got-exact) > 0.35*exact {
		t.Fatalf("median after extreme inserts: sketch %.3f vs exact %.3f", got, exact)
	}
	// The estimate must stay inside the observed range whatever the
	// extremes did to the markers.
	if got < 1 || got > 99 {
		t.Fatalf("median %.3f escaped the observed range", got)
	}

	// A new minimum and maximum keep being tracked exactly at the ends.
	lo := serve.NewP2Quantile(0.01)
	hi := serve.NewP2Quantile(0.99)
	for _, v := range []float64{5, 6, 7, 8, 9, -3, 120, -7, 200} {
		lo.Add(v)
		hi.Add(v)
	}
	if lo.Value() > 5 {
		t.Fatalf("p1 %.3f ignored the new minima", lo.Value())
	}
	if hi.Value() < 9 {
		t.Fatalf("p99 %.3f ignored the new maxima", hi.Value())
	}
}

// TestP2QuantileHeavyTies: long runs of identical observations must keep
// the sketch finite and exact — the marker-nudging denominators hit their
// guard conditions on ties.
func TestP2QuantileHeavyTies(t *testing.T) {
	q := serve.NewP2Quantile(0.5)
	for i := 0; i < 1000; i++ {
		q.Add(42)
	}
	if got := q.Value(); got != 42 {
		t.Fatalf("all-ties median %.6f, want 42", got)
	}
	// Two-valued stream with heavy ties on both sides.
	q2 := serve.NewP2Quantile(0.5)
	vals := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		v := 1.0
		if i%2 == 1 {
			v = 2.0
		}
		q2.Add(v)
		vals = append(vals, v)
	}
	got := q2.Value()
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("tied stream produced %v", got)
	}
	if got < 1 || got > 2 {
		t.Fatalf("tied median %.6f outside [1,2] (exact %.6f)", got, eval.Quantile(vals, 0.5))
	}
}

// TestMetricsUptimeOnFakeClock pins the clock-injection fix: uptime and
// derived throughput must follow the injected clock, not the wall.
func TestMetricsUptimeOnFakeClock(t *testing.T) {
	fc := &stepClock{now: time.Unix(5000, 0)}
	m := serve.NewMetricsAt(fc)
	if got := m.Snapshot().UptimeSec; got != 0 {
		t.Fatalf("uptime %.3fs before any advance", got)
	}
	fc.now = fc.now.Add(90 * time.Second)
	if got := m.Snapshot().UptimeSec; got != 90 {
		t.Fatalf("uptime %.3fs, want 90 from the fake clock", got)
	}
	// The nil-clock constructor stays on real time and reports ~0 here.
	if got := serve.NewMetricsAt(nil).Snapshot().UptimeSec; got > 1 {
		t.Fatalf("real-clock metrics aged %.3fs instantly", got)
	}
}

// stepClock is a minimal manually-stepped serve.Clock for metrics tests.
type stepClock struct{ now time.Time }

func (c *stepClock) Now() time.Time { return c.now }

func (c *stepClock) NewTimer(d time.Duration) serve.Timer {
	panic("metrics never arm timers")
}

func TestMetricsCountersAndSnapshot(t *testing.T) {
	m := serve.NewMetrics()
	m.Served("query", 2*time.Millisecond, 4)
	m.Served("query", 4*time.Millisecond, 2)
	m.Unserved("query", obs.OutcomeShedQueueFull)
	m.Unserved("adv", obs.OutcomeError)
	snap := m.Snapshot()
	if len(snap.Routes) != 2 {
		t.Fatalf("routes %d, want 2", len(snap.Routes))
	}
	// Sorted by name: adv then query.
	adv, query := snap.Routes[0], snap.Routes[1]
	if adv.Route != "adv" || adv.Errors != 1 || adv.Requests != 1 {
		t.Fatalf("adv route %+v", adv)
	}
	if query.Served != 2 || query.Shed != 1 || query.Requests != 3 {
		t.Fatalf("query route %+v", query)
	}
	if query.MeanBatch != 3 {
		t.Fatalf("mean batch %v, want 3", query.MeanBatch)
	}
	if query.MeanMs != 3 {
		t.Fatalf("mean latency %v ms, want 3", query.MeanMs)
	}
	if query.MaxMs != 4 {
		t.Fatalf("max latency %v ms, want 4", query.MaxMs)
	}
	if query.P50Ms < 2 || query.P50Ms > 4 {
		t.Fatalf("p50 %v outside observed range", query.P50Ms)
	}
}

// TestP2QuantileReset pins the sketch-reuse contract: after Reset the
// sketch behaves exactly like a freshly built one, so windowed consumers
// (TakeWindow) can drain it per tick without allocating a new sketch.
func TestP2QuantileReset(t *testing.T) {
	reused := serve.NewP2Quantile(0.95)
	for i := 0; i < 1000; i++ {
		reused.Add(float64(i))
	}
	reused.Reset()
	if got := reused.Value(); got != 0 {
		t.Fatalf("Value after Reset = %v, want 0", got)
	}

	fresh := serve.NewP2Quantile(0.95)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.NormFloat64()) * 3
		reused.Add(v)
		fresh.Add(v)
	}
	if got, want := reused.Value(), fresh.Value(); got != want {
		t.Fatalf("reset sketch diverged: %v vs fresh %v", got, want)
	}
}

// TestTakeWindowReusesSketch pins the windowed-drain behavior end to end:
// each TakeWindow reports only the samples since the previous call, and an
// empty window reads zero.
func TestTakeWindowReusesSketch(t *testing.T) {
	m := serve.NewMetrics()
	m.EnableWindow()
	for i := 0; i < 100; i++ {
		m.Served("r", 10*time.Millisecond, 1)
	}
	if p95, n := m.TakeWindow(); n != 100 || math.Abs(p95-10) > 0.5 {
		t.Fatalf("window 1: p95=%v n=%d, want ~10ms over 100", p95, n)
	}
	if p95, n := m.TakeWindow(); n != 0 || p95 != 0 {
		t.Fatalf("empty window: p95=%v n=%d, want 0, 0", p95, n)
	}
	for i := 0; i < 50; i++ {
		m.Served("r", 50*time.Millisecond, 1)
	}
	if p95, n := m.TakeWindow(); n != 50 || math.Abs(p95-50) > 2 {
		t.Fatalf("window 3: p95=%v n=%d, want ~50ms over 50 (stale samples leaked?)", p95, n)
	}
}
