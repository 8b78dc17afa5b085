package serve

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pelta/internal/obs"
	"pelta/internal/tensor"
)

// TestKernelOpIndicesAligned pins the implicit contract that tensor's
// KernelOp values and obs's kernel indices agree (the service forwards
// hook callbacks with a plain int conversion).
func TestKernelOpIndicesAligned(t *testing.T) {
	if int(tensor.KernelMatMul) != obs.KernelMatMul ||
		int(tensor.KernelConv) != obs.KernelConv ||
		int(tensor.KernelAttention) != obs.KernelAttention {
		t.Fatal("tensor.KernelOp values diverged from obs kernel indices")
	}
}

// TestTraceServedSpanChain pins the span chain of a served request under a
// fake clock: ordered offsets, exact stage partition, and a deterministic
// end-to-end latency equal to the clock advance.
func TestTraceServedSpanChain(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	rep.gate = make(chan struct{})
	s := NewService(stubPool(t, rep), Config{
		MaxBatch: 1, QueueDepth: 4, Clock: fc,
		Trace: &TraceConfig{Sample: 1.0},
	})
	defer s.Close()
	defer openGatesOnce(rep)() // a Fatal before the drain must not hang the Close

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit("benign", sample(1), time.Time{})
		done <- err
	}()
	waitFor(t, func() bool { return rep.serving.Load() == 1 })
	fc.Advance(3 * time.Millisecond)
	rep.gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	recs := s.Tracer().Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Outcome != obs.OutcomeServed || r.Route != "benign" || r.Batch != 1 {
		t.Fatalf("record %+v", r)
	}
	chain := []int64{0, r.Enqueued, r.Pickup, r.InferStart, r.InferEnd}
	for i := 1; i < len(chain); i++ {
		if chain[i] == obs.NoOffset || chain[i] < chain[i-1] {
			t.Fatalf("chain not monotonic: %v", chain)
		}
	}
	if r.DetectStart != obs.NoOffset || r.DetectEnd != obs.NoOffset {
		t.Fatalf("clientless submit must not reach the detector: %+v", r)
	}
	var sum int64
	for _, d := range r.Stages() {
		if d < 0 {
			t.Fatalf("negative stage in %v", r.Stages())
		}
		sum += d
	}
	if sum != r.End() {
		t.Fatalf("stage sum %d != end-to-end %d", sum, r.End())
	}
	// All clock movement happened while the request sat gated in the
	// replica: the whole 3ms lands in the infer stage.
	if got := r.Stages()[4]; got != (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("infer stage %dns, want 3ms", got)
	}
}

// TestTraceAnomaliesAlwaysKept pins the always-on anomaly rule: with
// Sample 0 nothing on the happy path is traced, but shed requests are.
func TestTraceAnomaliesAlwaysKept(t *testing.T) {
	rep := newStubReplica()
	rep.gate = make(chan struct{})
	s := NewService(stubPool(t, rep), Config{
		MaxBatch: 1, QueueDepth: 1,
		Trace: &TraceConfig{Sample: 0},
	})
	defer s.Close()
	open := openGatesOnce(rep)
	defer open() // a Fatal before the drain must not hang the Close

	var wg sync.WaitGroup
	var shed int
	var mu sync.Mutex
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit("t", sample(1), time.Time{})
			if errors.Is(err, ErrOverloaded) {
				mu.Lock()
				shed++
				mu.Unlock()
			}
		}()
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return shed >= 1 })
	open()
	wg.Wait()
	s.Close()

	recs := s.Tracer().Records()
	if len(recs) == 0 {
		t.Fatal("no anomaly records although requests were shed")
	}
	for _, r := range recs {
		if r.Outcome == obs.OutcomeServed {
			t.Fatalf("served request traced at Sample 0: %+v", r)
		}
		if r.Outcome != obs.OutcomeShedQueueFull {
			t.Fatalf("unexpected outcome %q", r.Outcome)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recs) != shed {
		t.Fatalf("%d shed but %d anomaly records", shed, len(recs))
	}
}

// matmulReplica runs a real matmul per batch so the kernel-boundary hooks
// fire inside the replica call.
type matmulReplica struct {
	w *tensor.Tensor
}

func newMatmulReplica() *matmulReplica {
	w := tensor.New(4, 3)
	w.Fill(0.5)
	return &matmulReplica{w: w}
}

func (r *matmulReplica) Classes() int      { return 3 }
func (r *matmulReplica) InputShape() []int { return []int{1, 2, 2} }

func (r *matmulReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	b := x.Dim(0)
	out := tensor.New(b, 3)
	tensor.MatMulInto(out, x.Reshape(b, 4), r.w)
	return out, nil
}

// TestTraceKernelAttribution pins the batch-level kernel time fields: on
// the real clock a replica that multiplies matrices must yield a span with
// positive matmul time, and the service registry must expose the same
// totals.
func TestTraceKernelAttribution(t *testing.T) {
	p, err := NewReplicaPool(1, func(int) (Replica, error) { return newMatmulReplica(), nil })
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(p, Config{MaxBatch: 1, QueueDepth: 4, Trace: &TraceConfig{Sample: 1.0}})
	defer s.Close()

	if _, err := s.Submit("t", sample(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	recs := s.Tracer().Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].MatMulNS <= 0 {
		t.Fatalf("span matmul time %dns, want > 0", recs[0].MatMulNS)
	}
	if recs[0].ConvNS != 0 || recs[0].AttnNS != 0 {
		t.Fatalf("unexpected conv/attention time: %+v", recs[0])
	}
	if ks := s.KernelStats(); ks.NS(obs.KernelMatMul) < recs[0].MatMulNS || ks.Calls(obs.KernelMatMul) == 0 {
		t.Fatal("kernel totals inconsistent with span attribution")
	}
}

// TestPromExposition drives the full /metrics?format=prom surface over a
// shielded pool and asserts the acceptance-criterion coverage: serve,
// detect, autoscaler, and tee samples in valid exposition text.
func TestPromExposition(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	s := NewService(stubPool(t, rep), Config{
		MaxBatch: 1, QueueDepth: 8, Clock: fc,
		Detect: &DetectConfig{},
	})
	defer s.Close()
	if _, err := s.SubmitFrom("benign", "alice", sample(1), time.Time{}); err != nil {
		t.Fatal(err)
	}

	h := NewHandler(s)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics?format=prom", nil))
	if rw.Code != 200 {
		t.Fatalf("status %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rw.Body.String()
	for _, want := range []string{
		"# TYPE pelta_served_total counter",
		`pelta_served_total{route="benign"} 1`,
		"# TYPE pelta_live_replicas gauge",
		"pelta_scale_ups_total",
		"pelta_detect_clients 1",
		"pelta_detect_observed_total 1",
		`pelta_latency_ms{quantile="0.95",route="benign"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// TestTraceEndpoint pins the NDJSON trace stream and the 404 contract of
// an untraced service.
func TestTraceEndpoint(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 1, QueueDepth: 4, Trace: &TraceConfig{Sample: 1.0}})
	defer s.Close()
	if _, err := s.Submit("t", sample(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(s)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/trace", nil))
	if rw.Code != 200 {
		t.Fatalf("status %d", rw.Code)
	}
	if !strings.Contains(rw.Body.String(), `"outcome":"served"`) {
		t.Fatalf("trace body missing span: %s", rw.Body.String())
	}

	// Without Config.Trace the endpoint 404s instead of streaming nothing.
	s2 := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 1})
	defer s2.Close()
	rw2 := httptest.NewRecorder()
	NewHandler(s2).ServeHTTP(rw2, httptest.NewRequest("GET", "/trace", nil))
	if rw2.Code != 404 {
		t.Fatalf("untraced /trace status %d, want 404", rw2.Code)
	}
}

// TestSubmitUntracedAllocs is the acceptance guard: tracing disabled must
// add zero allocations to the Submit hot path versus the pre-obs baseline
// of 17 allocs per served request (measured before this layer existed and
// pinned by BenchmarkSubmitUntraced).
func TestSubmitUntracedAllocs(t *testing.T) {
	const baselineAllocs = 17
	p, err := NewReplicaPool(1, func(int) (Replica, error) { return newFixedReplica(1), nil })
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(p, Config{MaxBatch: 1, QueueDepth: 16})
	defer s.Close()
	x := sample(1)
	if _, err := s.Submit("bench", x, time.Time{}); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.Submit("bench", x, time.Time{}); err != nil {
			panic(err)
		}
	})
	if got > baselineAllocs {
		t.Fatalf("untraced Submit does %.1f allocs/op, baseline is %d — tracing must stay off the disabled hot path", got, baselineAllocs)
	}
}

// TestMetricsSnapshotRace hammers Snapshot and the Prometheus collector
// against concurrent observers — the -race probe for the single-lock
// snapshot guarantee.
func TestMetricsSnapshotRace(t *testing.T) {
	m := NewMetrics()
	m.EnableWindow()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := fmt.Sprintf("r%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Offered(route)
				switch i % 5 {
				case 0:
					m.Unserved(route, obs.OutcomeShedDetect)
				case 1:
					m.Unserved(route, obs.OutcomeRejected)
				case 2:
					m.Unserved(route, obs.OutcomeError)
				default:
					m.Served(route, time.Duration(i)*time.Microsecond, 1+i%4)
				}
				m.Probe(route, i%3 == 0, i%7 == 0, i%11 == 0)
			}
		}(w)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		snap := m.Snapshot()
		for _, r := range snap.Routes {
			if r.Requests != r.Served+r.Shed+r.Rejected+r.Errors {
				t.Errorf("inconsistent snapshot: %+v", r)
			}
		}
		m.Collect()
		m.TakeWindow()
	}
	close(stop)
	wg.Wait()
}
