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

// runGoldenTrace drives six requests through a traced service on the fake
// clock with a fully scripted timeline: 2 submit while the clock is frozen,
// 4 more after a 1µs advance, then each inference is released after a 1ms
// advance. Every timestamp derives from the injected clock, so the
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
	var wg sync.WaitGroup
	submit := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Submit("benign", x, time.Time{}); err != nil {
					t.Error(err)
				}
			}()
		}
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
	// The offered counter is bumped on entry to Submit, before the enqueue
	// stamp, so on its own it does not say a request has left admission.
	// The queue-depth gauge is read under the service lock, which admission
	// holds from that bump to the queue send: offered == n followed by a
	// depth read means all n requests carry their enqueue stamp.
	settled := func(offered, depth float64) bool {
		return gauge("pelta_requests_offered_total") == offered && gauge("pelta_queue_depth") == depth
	}

	// The first 2 submit on the frozen clock; the worker blocks on the gate
	// with the first of them and the batcher holds the second.
	submit(2)
	waitCond(t, func() bool { return rep.serving.Load() == 1 && settled(2, 0) })
	// The remaining 4 enqueue at exactly start+1µs while the worker is
	// still gated.
	gc.Advance(time.Microsecond)
	submit(4)
	waitCond(t, func() bool { return settled(6, 4) })
	// Release the six inferences, advancing 1ms inside each infer stage.
	for i := 0; i < 6; i++ {
		gc.Advance(time.Millisecond)
		rep.gate <- struct{}{}
		if i < 5 {
			waitCond(t, func() bool { return rep.serving.Load() == int32(i+2) })
		}
	}
	wg.Wait()
	recs := s.Tracer().Records()
	return recs, eval.SummarizeTrace(recs)
}

// goldenTraceTable is the scripted timeline's trace table, pinned byte for
// byte.
const goldenTraceTable = `trace: 6 spans, 6 served, 1 routes
route benign: 6 spans, 6 served, e2e p50 3.5  p95 5.75  p99 5.95 ms (mean 3.500)
  stage     |    p50 ms |    p95 ms |   mean ms |  % e2e
  detect    |     0.000 |     0.000 |     0.000 |   0.0%
  admission |     0.000 |     0.000 |     0.000 |   0.0%
  queue     |     2.500 |     4.750 |     2.500 |  71.4%
  batch     |     0.000 |     0.000 |     0.000 |   0.0%
  infer     |     1.000 |     1.001 |     1.000 |  28.6%
`

// TestGoldenTraceDeterministic is the golden trace pin: the scripted
// timeline renders the golden SummarizeTrace table at 1 and at 8 kernel
// workers, because every span timestamp reads the injected clock rather
// than the wall.
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
	if r1 != goldenTraceTable || r2 != goldenTraceTable {
		t.Fatalf("trace table drifted:\n--- 1 worker\n%s--- 8 workers\n%s--- want\n%s", r1, r2, goldenTraceTable)
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
