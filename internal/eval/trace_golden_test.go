package eval_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pelta/internal/eval"
	"pelta/internal/obs"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

// goldenClock is a manually advanced serve.Clock (a local copy of the
// internal test fake — the golden test lives outside package serve because
// eval cannot be imported from there).
type goldenClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*goldenTimer
}

type goldenTimer struct {
	gc   *goldenClock
	c    chan time.Time
	at   time.Time
	done bool
}

func newGoldenClock() *goldenClock { return &goldenClock{now: time.Unix(1000, 0)} }

func (g *goldenClock) Now() time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.now
}

func (g *goldenClock) NewTimer(d time.Duration) serve.Timer {
	g.mu.Lock()
	defer g.mu.Unlock()
	t := &goldenTimer{gc: g, c: make(chan time.Time, 1), at: g.now.Add(d)}
	g.timers = append(g.timers, t)
	return t
}

func (g *goldenClock) Advance(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.now = g.now.Add(d)
	for _, t := range g.timers {
		if !t.done && !t.at.After(g.now) {
			t.done = true
			t.c <- g.now
		}
	}
}

func (t *goldenTimer) C() <-chan time.Time { return t.c }

func (t *goldenTimer) Stop() bool {
	t.gc.mu.Lock()
	defer t.gc.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	return true
}

// gateReplica blocks each batch on a token so the test controls exactly
// when the fake clock moves relative to each inference, then runs a real
// matmul so the kernel-boundary hook fires under whatever tensor
// parallelism is pinned.
type gateReplica struct {
	gate    chan struct{}
	serving atomic.Int32
	w       *tensor.Tensor
}

func newGateReplica() *gateReplica {
	w := tensor.New(4, 3)
	w.Fill(0.25)
	return &gateReplica{gate: make(chan struct{}), w: w}
}

func (r *gateReplica) Classes() int      { return 3 }
func (r *gateReplica) InputShape() []int { return []int{1, 2, 2} }

func (r *gateReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	r.serving.Add(1)
	<-r.gate
	out := tensor.New(x.Dim(0), 3)
	tensor.MatMulInto(out, x.Reshape(x.Dim(0), 4), r.w)
	return out, nil
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// runGoldenTrace drives a seeded 3-phase load through a traced service on
// the fake clock with a fully scripted timeline: 6 requests (2 per phase)
// enqueue while the clock is frozen, then each inference is released after
// a 1ms advance. Every timestamp derives from the injected clock, so the
// resulting span set — and its summary — is a pure function of the script.
func runGoldenTrace(t *testing.T) ([]obs.SpanRecord, *eval.TraceSummary) {
	t.Helper()
	gc := newGoldenClock()
	rep := newGateReplica()
	pool, err := serve.NewReplicaPool(1, func(int) (serve.Replica, error) { return rep, nil })
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewService(pool, serve.Config{
		MaxBatch: 1, QueueDepth: 16, Clock: gc,
		Trace: &serve.TraceConfig{Sample: 1.0},
	})
	defer s.Close()

	x := tensor.New(1, 2, 2)
	x.Fill(0.5)
	items := []serve.TrafficItem{{X: x, Label: 2}}
	// Rate 2e9 truncates the pacing interval to 0: each phase's 2 shots
	// are due at the phase boundary, and the 1ns phases put all six shots
	// within 2ns of the frozen start.
	phases := []serve.LoadPhase{
		{Rate: 2e9, Duration: time.Nanosecond},
		{Rate: 2e9, Duration: time.Nanosecond},
		{Rate: 2e9, Duration: time.Nanosecond},
	}
	// gauge sums one metric family of the service registry over its labels.
	gauge := func(name string) (v float64) {
		for _, m := range s.Registry().Gather() {
			if m.Name == name {
				v += m.Value
			}
		}
		return v
	}

	done := make(chan error, 1)
	go func() {
		_, err := serve.RunLoadPhases(s, items, phases, serve.LoadConfig{Seed: 7})
		done <- err
	}()

	// The offered counter is bumped on entry to Submit, before the enqueue
	// stamp, so on its own it does not say a shot has left admission. The
	// queue-depth gauge is read under the service lock, which admission
	// holds from that bump to the queue send: offered == n followed by a
	// depth read means all n shots carry their enqueue stamp.
	settled := func(offered, depth float64) bool {
		return gauge("pelta_requests_offered_total") == offered && gauge("pelta_queue_depth") == depth
	}
	// Phase 1's shots submit on the frozen clock; the worker blocks on the
	// gate with the first of them and the batcher holds the second.
	waitCond(t, func() bool { return rep.serving.Load() == 1 && settled(2, 0) })
	// Fire the phase-2/3 pacing timers; all remaining shots enqueue at
	// exactly start+1µs while the worker is still gated.
	gc.Advance(time.Microsecond)
	waitCond(t, func() bool { return settled(6, 4) })
	// Release the six inferences, advancing 1ms inside each infer stage.
	for i := 0; i < 6; i++ {
		gc.Advance(time.Millisecond)
		rep.gate <- struct{}{}
		if i < 5 {
			waitCond(t, func() bool { return rep.serving.Load() == int32(i+2) })
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	recs := s.Tracer().Records()
	return recs, eval.SummarizeTrace(recs)
}

// TestGoldenTraceDeterministic is the golden trace pin: the same seeded
// 3-phase load renders a byte-identical SummarizeTrace table across two
// runs AND across 1 vs 8 kernel workers, because every span timestamp
// reads the injected clock rather than the wall.
func TestGoldenTraceDeterministic(t *testing.T) {
	prev := tensor.SetKernelWorkers(1)
	defer tensor.SetKernelWorkers(prev)

	recs1, sum1 := runGoldenTrace(t)
	if err := eval.ValidateSpans(recs1); err != nil {
		t.Fatal(err)
	}
	tensor.SetKernelWorkers(8)
	recs2, sum2 := runGoldenTrace(t)
	if err := eval.ValidateSpans(recs2); err != nil {
		t.Fatal(err)
	}

	r1, r2 := sum1.Render(), sum2.Render()
	if r1 != r2 {
		t.Fatalf("trace table not reproducible across runs/kernel workers:\n--- 1 worker\n%s\n--- 8 workers\n%s", r1, r2)
	}
	if len(recs1) != 6 || sum1.Served != 6 {
		t.Fatalf("span set: %d spans, %d served, want 6/6:\n%s", len(recs1), sum1.Served, r1)
	}
	for i := range recs1 {
		if recs1[i].ID != recs2[i].ID || recs1[i].Outcome != recs2[i].Outcome {
			t.Fatalf("span %d diverged: %+v vs %+v", i, recs1[i], recs2[i])
		}
	}

	// The scripted timeline: queue residencies {0, 1.001, 2, 3, 4, 5}ms,
	// infer {1.001, 1, 1, 1, 1, 1}ms, so e2e p50 is 3.5ms and the stage
	// p50 columns must sum within 5% of it (here: exactly).
	route := sum1.Routes[0]
	if route.EndToEnd.P50 != 3.5 {
		t.Fatalf("e2e p50 %v ms, want 3.5:\n%s", route.EndToEnd.P50, r1)
	}
	var p50Sum, p95Sum float64
	for _, st := range route.Stages {
		p50Sum += st.P50Ms
		p95Sum += st.P95Ms
	}
	if diff := p50Sum - route.EndToEnd.P50; diff < -0.05*route.EndToEnd.P50 || diff > 0.05*route.EndToEnd.P50 {
		t.Fatalf("stage p50 sum %v vs e2e p50 %v: outside 5%%", p50Sum, route.EndToEnd.P50)
	}
	if diff := p95Sum - route.EndToEnd.P95; diff < -0.05*route.EndToEnd.P95 || diff > 0.05*route.EndToEnd.P95 {
		t.Fatalf("stage p95 sum %v vs e2e p95 %v: outside 5%%", p95Sum, route.EndToEnd.P95)
	}
}
