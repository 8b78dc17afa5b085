package serve

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"pelta/internal/obs"
	"pelta/internal/tensor"
)

// failingReplica is a stubReplica whose every batch fails.
type failingReplica struct{ *stubReplica }

func (failingReplica) Logits(*tensor.Tensor) (*tensor.Tensor, error) {
	return nil, errors.New("replica down")
}

// TestOutcomeAccounting drives every way a request can leave the service —
// one real exit per obs.Outcome* value, plus the four /query body rejects —
// on a service tracing at Sample 0, and checks what the one exit promises:
// per route requests = served + shed + rejected + errors, nothing left in
// flight at rest, detect_shed ≤ shed, the outcome lands in its own counter,
// and every request that got no answer emitted exactly one span carrying
// that outcome (served ones none: they are no anomaly and Sample is 0).
// Every exit also hands back its arriving count: one leaked count would
// make every later partial batch wait out MaxDelay beside an idle worker.
func TestOutcomeAccounting(t *testing.T) {
	// traced builds a one-replica service with tracing armed at Sample 0.
	traced := func(t *testing.T, rep Replica, cfg Config) *Service {
		pool, err := NewReplicaPool(1, func(int) (Replica, error) { return rep, nil })
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = &TraceConfig{Sample: 0}
		return NewService(pool, cfg)
	}
	// submit reports 1 when the request got no answer.
	submit := func(s *Service, route, client string, x *tensor.Tensor, deadline time.Time) int {
		if _, err := s.SubmitFrom(route, client, x, deadline); err != nil {
			return 1
		}
		return 0
	}
	// post sends one /query body and reports 1 for the refused body.
	post := func(body io.Reader, wantCode int) func(t *testing.T) (*Service, int) {
		return func(t *testing.T) (*Service, int) {
			s := traced(t, newStubReplica(), Config{})
			rec := httptest.NewRecorder()
			NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", body))
			if rec.Code != wantCode {
				t.Fatalf("status %d, want %d", rec.Code, wantCode)
			}
			return s, 1
		}
	}

	cases := []struct {
		name    string
		outcome string
		route   string
		// drive builds a service, pushes requests through it and returns it
		// with the number of them that got no answer.
		drive func(t *testing.T) (*Service, int)
	}{
		{"wrong shape", obs.OutcomeRejected, "t", func(t *testing.T) (*Service, int) {
			s := traced(t, newStubReplica(), Config{})
			return s, submit(s, "t", "", tensor.New(2, 2), time.Time{})
		}},
		{"non-finite", obs.OutcomeRejected, "t", func(t *testing.T) (*Service, int) {
			s := traced(t, newStubReplica(), Config{})
			x := sample(1)
			x.Data()[1] = float32(math.NaN())
			return s, submit(s, "t", "", x, time.Time{})
		}},
		{"deadline at admission", obs.OutcomeShedDeadlineAdmit, "t", func(t *testing.T) (*Service, int) {
			fc := newFakeClock()
			s := traced(t, newStubReplica(), Config{Clock: fc})
			return s, submit(s, "t", "", sample(1), fc.Now().Add(-time.Millisecond))
		}},
		{"detector shed", obs.OutcomeShedDetect, "adv", func(t *testing.T) (*Service, int) {
			s := traced(t, newStubReplica(), Config{MaxBatch: 1, Detect: detectTestConfig(DetectShed)})
			n := 0
			for i := 0; i < 8; i++ {
				n += submit(s, "adv", "attacker", dupSample(i), time.Time{})
			}
			return s, n
		}},
		{"admission limit", obs.OutcomeShedAdmitLimit, "t", func(t *testing.T) (*Service, int) {
			// One token, refilled far too slowly to matter.
			s := traced(t, newStubReplica(), Config{MaxBatch: 1, Admission: &AdmissionConfig{Rate: 1e-6}})
			return s, submit(s, "t", "", sample(1), time.Time{}) + submit(s, "t", "", sample(2), time.Time{})
		}},
		{"queue full", obs.OutcomeShedQueueFull, "t", func(t *testing.T) (*Service, int) {
			rep := newStubReplica()
			rep.gate = make(chan struct{})
			s := traced(t, rep, Config{MaxBatch: 1, QueueDepth: 1})
			var shed atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < 10; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					shed.Add(int32(submit(s, "t", "", sample(1), time.Time{})))
				}()
			}
			waitFor(t, func() bool { return shed.Load() >= 1 })
			close(rep.gate)
			wg.Wait()
			return s, int(shed.Load())
		}},
		{"deadline in batch", obs.OutcomeShedDeadlineBatch, "t", func(t *testing.T) (*Service, int) {
			fc := newFakeClock()
			rep := newStubReplica()
			rep.gate = make(chan struct{})
			s := traced(t, rep, Config{MaxBatch: 1, QueueDepth: 4, Clock: fc})
			var late atomic.Int32
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				submit(s, "t", "", sample(1), time.Time{})
			}()
			waitFor(t, func() bool { return rep.serving.Load() == 1 })
			go func() {
				defer wg.Done()
				late.Add(int32(submit(s, "t", "", sample(2), fc.Now().Add(10*time.Millisecond))))
			}()
			// Admission holds s.mu shared from the offered bump to the queue
			// send, so once the second request is counted offered, taking
			// the lock exclusively waits until it is queued — behind the
			// busy replica, with its deadline still ahead.
			waitFor(t, func() bool { return routeOffered(s, "t") == 2 })
			s.mu.Lock()
			s.mu.Unlock()
			fc.Advance(50 * time.Millisecond)
			close(rep.gate)
			wg.Wait()
			return s, int(late.Load())
		}},
		{"replica error", obs.OutcomeError, "t", func(t *testing.T) (*Service, int) {
			s := traced(t, failingReplica{newStubReplica()}, Config{MaxBatch: 1})
			return s, submit(s, "t", "", sample(1), time.Time{})
		}},
		{"served", obs.OutcomeServed, "t", func(t *testing.T) (*Service, int) {
			s := traced(t, newStubReplica(), Config{MaxBatch: 1})
			return s, submit(s, "t", "", sample(1), time.Time{})
		}},
		{"http malformed line", obs.OutcomeRejected, "query",
			post(strings.NewReader("{oops\n"), http.StatusBadRequest)},
		{"http wrong dimension", obs.OutcomeRejected, "query",
			post(strings.NewReader(`{"x":[1,2]}`+"\n"), http.StatusBadRequest)},
		{"http too many lines", obs.OutcomeRejected, "query",
			post(strings.NewReader(strings.Repeat(`{"x":[1,1,1,1]}`+"\n", maxQueryLines+1)), http.StatusRequestEntityTooLarge)},
		{"http truncated body", obs.OutcomeRejected, "query",
			post(io.MultiReader(strings.NewReader(`{"x":[1,1,1,1]}`+"\n"), iotest.ErrReader(io.ErrUnexpectedEOF)), http.StatusBadRequest)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, unserved := c.drive(t)
			s.Close()
			if (unserved == 0) != (c.outcome == obs.OutcomeServed) {
				t.Fatalf("%d requests got no answer on the %s path", unserved, c.outcome)
			}
			if n := s.arriving.Load(); n != 0 {
				t.Errorf("arriving = %d at rest after the %s path, want 0", n, c.outcome)
			}

			var hit RouteSnapshot
			for _, r := range s.Metrics().Snapshot().Routes {
				if r.Requests != r.Served+r.Shed+r.Rejected+r.Errors {
					t.Errorf("route %s: requests %d != served %d + shed %d + rejected %d + errors %d",
						r.Route, r.Requests, r.Served, r.Shed, r.Rejected, r.Errors)
				}
				if r.Offered != r.Requests {
					t.Errorf("route %s at rest: offered %d, resolved %d", r.Route, r.Offered, r.Requests)
				}
				if r.DetectShed > r.Shed {
					t.Errorf("route %s: detect_shed %d > shed %d", r.Route, r.DetectShed, r.Shed)
				}
				if r.Route == c.route {
					hit = r
				}
			}
			// The outcome moved its own counter (shed-detect two) and no other.
			n := uint64(unserved)
			var want RouteSnapshot
			switch c.outcome {
			case obs.OutcomeServed:
			case obs.OutcomeRejected:
				want.Rejected = n
			case obs.OutcomeError:
				want.Errors = n
			case obs.OutcomeShedDetect:
				want.DetectShed = n
				fallthrough
			default:
				want.Shed = n
			}
			if hit.Offered == 0 || hit.Served != hit.Offered-n || hit.Shed != want.Shed ||
				hit.Rejected != want.Rejected || hit.Errors != want.Errors || hit.DetectShed != want.DetectShed {
				t.Errorf("route %+v, want %d unserved counted as %s only", hit, n, c.outcome)
			}

			recs := s.Tracer().Records()
			if len(recs) != unserved {
				t.Fatalf("%d requests got no answer but %d spans were emitted", unserved, len(recs))
			}
			for _, r := range recs {
				if r.Outcome != c.outcome || r.Route != c.route {
					t.Errorf("span route %q outcome %q, want %q %q", r.Route, r.Outcome, c.route, c.outcome)
				}
			}
		})
	}
	// A closed service counts and traces nothing, so the table cannot hold
	// it; its two entries, a Submit and a /query body, still hand back the
	// arriving count.
	t.Run("closed service", func(t *testing.T) {
		s := traced(t, newStubReplica(), Config{})
		s.Close()
		if _, err := s.SubmitFrom("t", "c", sample(1), time.Time{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit on a closed service: %v, want ErrClosed", err)
		}
		rec := httptest.NewRecorder()
		body := strings.NewReader(`{"x":[1,1,1,1]}` + "\n" + `{"x":[2,2,2,2]}` + "\n")
		NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", body))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", rec.Code)
		}
		if n := s.arriving.Load(); n != 0 {
			t.Fatalf("arriving = %d at rest on a closed service, want 0", n)
		}
	})
}

// panickyReplica is a stubReplica whose first batch panics, the way a shape
// check deep under a real replica's Logits would.
type panickyReplica struct {
	*stubReplica
	calls atomic.Int32
}

func (r *panickyReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	if r.calls.Add(1) == 1 {
		panic("tensor: shape mismatch in the first batch")
	}
	return r.stubReplica.Logits(x)
}

// kernelPanicReplica is a stubReplica whose first batch runs a real kernel
// on malformed operands: Conv2dBackwardInto with an upstream gradient one
// sample long for a batch of 16. Every chunk past sample 0 slices beyond
// its end; at 8 kernel workers those chunks mostly run on pool helpers
// while the replica's own goroutine works through sample 0.
type kernelPanicReplica struct {
	*stubReplica
	calls atomic.Int32
}

func (r *kernelPanicReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	if r.calls.Add(1) == 1 {
		in, w := tensor.New(16, 8, 32, 32), tensor.New(8, 8, 3, 3)
		gx, gy := tensor.New(in.Shape()...), tensor.New(1, 8, 32, 32)
		tensor.Conv2dBackwardInto(nil, gx, nil, nil, in, w, gy, 1, 1)
	}
	return r.stubReplica.Logits(x)
}

// TestReplicaPanicContained: a panic under Replica.Logits costs its batch,
// not the process — also when a kernel raises it on a pool helper
// goroutine, where it reaches the replica's call through parallelFor. The
// lines of that batch leave with the error outcome (counted, traced, the
// panic value in the error), the worker survives and serves the next batch
// on the same replica, and the books balance at rest.
func TestReplicaPanicContained(t *testing.T) {
	restore := tensor.SetKernelWorkers(8)
	defer tensor.SetKernelWorkers(restore)
	for _, tc := range []struct {
		name string
		rep  Replica
		msg  string
	}{
		{"panic under Logits", &panickyReplica{stubReplica: newStubReplica()}, "shape mismatch"},
		{"panic in a kernel chunk", &kernelPanicReplica{stubReplica: newStubReplica()}, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := NewReplicaPool(1, func(int) (Replica, error) { return tc.rep, nil })
			if err != nil {
				t.Fatal(err)
			}
			s := NewService(pool, Config{MaxBatch: 1, Trace: &TraceConfig{Sample: 0}})

			_, err = s.Submit("t", sample(1), time.Time{})
			if err == nil || !strings.Contains(err.Error(), "replica failed") || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("first submit: err %v, want a replica failure carrying the panic value", err)
			}
			if errors.Is(err, ErrOverloaded) {
				t.Fatalf("panic reported as overload: %v", err)
			}
			for i := 0; i < 3; i++ {
				if _, err := s.Submit("t", sample(1), time.Time{}); err != nil {
					t.Fatalf("submit %d after the panic: %v", i, err)
				}
			}
			s.Close()

			snap := s.Metrics().Snapshot()
			if len(snap.Routes) != 1 {
				t.Fatalf("routes %+v, want only t", snap.Routes)
			}
			r := snap.Routes[0]
			if r.Errors != 1 || r.Served != 3 || r.Shed != 0 || r.Rejected != 0 {
				t.Errorf("route %+v, want 1 error and 3 served", r)
			}
			if r.Requests != r.Served+r.Shed+r.Rejected+r.Errors || r.Offered != r.Requests {
				t.Errorf("route %+v: offered, requests and the outcome sum disagree at rest", r)
			}
			recs := s.Tracer().Records()
			if len(recs) != 1 || recs[0].Outcome != obs.OutcomeError {
				t.Errorf("spans %+v, want one with outcome %q", recs, obs.OutcomeError)
			}
		})
	}
}

// TestSubmitRejectsNonFinite pins the non-finite bugfix: a NaN or ±Inf
// pixel used to be served (NaN logits, class 0, counted served) after
// fingerprinting to the zero vector in the client's detector window. It is
// now refused as malformed before the detector sees it.
func TestSubmitRejectsNonFinite(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{
		MaxBatch: 1,
		Detect:   detectTestConfig(DetectLog),
		Trace:    &TraceConfig{Sample: 0},
	})
	defer s.Close()

	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, v := range bad {
		x := sample(0.5)
		x.Data()[2] = v
		res, err := s.SubmitFrom("t", "c1", x, time.Time{})
		if err == nil {
			t.Fatalf("sample with %v served: logits %v", v, res.Logits.Data())
		}
		if errors.Is(err, ErrOverloaded) {
			t.Fatalf("sample with %v reported as overload (%v), want a rejection", v, err)
		}
	}
	snap := s.Metrics().Snapshot()
	if len(snap.Routes) != 1 {
		t.Fatalf("routes %+v, want only t", snap.Routes)
	}
	if r := snap.Routes[0]; r.Rejected != 3 || r.Served != 0 || r.Requests != 3 || r.Offered != 3 || r.Probed != 0 {
		t.Fatalf("route %+v, want offered=requests=rejected=3, nothing served or probed", r)
	}
	if st := s.Detector().Stats(time.Now()); st.Observed != 0 {
		t.Fatalf("detector fingerprinted %d non-finite samples", st.Observed)
	}
	recs := s.Tracer().Records()
	if len(recs) != len(bad) {
		t.Fatalf("%d anomaly spans, want %d", len(recs), len(bad))
	}
	for _, r := range recs {
		if r.Outcome != obs.OutcomeRejected {
			t.Fatalf("span outcome %q, want %q", r.Outcome, obs.OutcomeRejected)
		}
	}
	if _, err := s.SubmitFrom("t", "c1", sample(0.5), time.Time{}); err != nil {
		t.Fatalf("finite sample after the rejects: %v", err)
	}
}
