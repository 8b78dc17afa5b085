package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pelta/internal/tensor"
)

// postLines POSTs NDJSON lines to /query and returns the response.
func postLines(t *testing.T, url string, lines ...string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func headerInt(t *testing.T, resp *http.Response, name string) int {
	t.Helper()
	v, err := strconv.Atoi(resp.Header.Get(name))
	if err != nil {
		t.Fatalf("header %s = %q: %v", name, resp.Header.Get(name), err)
	}
	return v
}

// TestQuerySummaryHeadersServed: a fully served request answers 200 with
// the served/shed/error counters summarizing the body.
func TestQuerySummaryHeadersServed(t *testing.T) {
	rep := newStubReplica()
	s := NewService(stubPool(t, rep), Config{MaxBatch: 2, MaxDelay: time.Millisecond, QueueDepth: 8})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp := postLines(t, srv.URL, `{"x":[1,1,1,1]}`, `{"x":[2,2,2,2]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := headerInt(t, resp, HeaderServed); got != 2 {
		t.Fatalf("%s = %d, want 2", HeaderServed, got)
	}
	if headerInt(t, resp, HeaderShed) != 0 || headerInt(t, resp, HeaderErrors) != 0 {
		t.Fatalf("unexpected shed/error counters: %v", resp.Header)
	}
}

// TestQueryAllLinesFailedAnswers503: when no line at all is served (here:
// service closed, every Submit fails) the handler must answer 503 with the
// failure summarized in headers, not a deceptive 200.
func TestQueryAllLinesFailedAnswers503(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 2, QueueDepth: 8})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	s.Close()

	resp := postLines(t, srv.URL, `{"x":[1,1,1,1]}`, `{"x":[2,2,2,2]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when zero lines were served", resp.StatusCode)
	}
	if got := headerInt(t, resp, HeaderErrors); got != 2 {
		t.Fatalf("%s = %d, want 2", HeaderErrors, got)
	}
	// The body still carries one per-line error for callers that do parse.
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 2; i++ {
		var qr QueryResponse
		if err := dec.Decode(&qr); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if qr.Error == "" {
			t.Fatalf("line %d missing error", i)
		}
	}
}

// TestQueryDeadlineShedOnServiceClock pins the clock-consistency fix: the
// handler computes per-line deadlines on the Service clock, so under a fake
// clock a queued line whose deadline lapses is shed by the worker — the
// HTTP layer and the batcher agree on time, and an all-shed request answers
// 503 with the shed counter set.
func TestQueryDeadlineShedOnServiceClock(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	rep.gate = make(chan struct{})
	s := NewService(stubPool(t, rep), Config{MaxBatch: 2, MaxDelay: 2 * time.Millisecond, QueueDepth: 4, Clock: fc})
	srv := httptest.NewServer(NewHandler(s))
	// Deferred in this order so that a Fatal unwinds gate, then service,
	// then server: the server's Close waits for every open request.
	defer srv.Close()
	defer s.Close()
	defer openGatesOnce(rep)()

	// Request A (no deadline) finds the replica idle and goes straight to
	// it, clock frozen; the gate holds it there.
	aDone := make(chan *http.Response, 1)
	go func() {
		aDone <- postLines(t, srv.URL, `{"x":[1,1,1,1]}`)
	}()
	waitFor(t, func() bool { return rep.serving.Load() == 1 })

	// Request B carries a 10ms deadline stamped from the fake clock before
	// it is offered. Admission holds s.mu shared until the queue send, so
	// once B is offered, taking the lock waits until B is queued — past the
	// admission deadline check, behind the busy replica.
	bDone := make(chan *http.Response, 1)
	go func() {
		bDone <- postLines(t, srv.URL, `{"x":[2,2,2,2],"deadline_ms":10}`)
	}()
	waitFor(t, func() bool { return routeOffered(s, "query") == 2 })
	s.mu.Lock()
	s.mu.Unlock()

	// The fake clock jumps past B's deadline while B's batch still waits
	// behind the busy replica; only then does the replica come free.
	fc.Advance(50 * time.Millisecond)
	rep.gate <- struct{}{}

	respA := <-aDone
	defer respA.Body.Close()
	if respA.StatusCode != http.StatusOK || headerInt(t, respA, HeaderServed) != 1 {
		t.Fatalf("A: status %d served %s", respA.StatusCode, respA.Header.Get(HeaderServed))
	}
	respB := <-bDone
	defer respB.Body.Close()
	if respB.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("B: status %d, want 503 (deadline must lapse on the service clock)", respB.StatusCode)
	}
	if got := headerInt(t, respB, HeaderShed); got != 1 {
		t.Fatalf("B: %s = %d, want 1", HeaderShed, got)
	}
	var qr QueryResponse
	if err := json.NewDecoder(respB.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qr.Error, "overloaded") {
		t.Fatalf("B line error %q does not mention overload", qr.Error)
	}
	// B's shed also lands in the metrics under the same clock.
	snap := s.Metrics().Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Shed != 1 || snap.Routes[0].Served != 1 {
		t.Fatalf("metrics %+v, want served=1 shed=1", snap.Routes)
	}
}

// TestQueryMalformedLinesCounted pins the rejected-traffic bugfix on the
// HTTP surface: a 400 for an unparsable or wrong-dimension line must also
// bump the query route's rejected counter, so a stream of malformed
// traffic shows up in /metrics instead of vanishing into per-caller 400s.
func TestQueryMalformedLinesCounted(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 2, QueueDepth: 8})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	bad := postLines(t, srv.URL, `{oops`)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON line gave %d, want 400", bad.StatusCode)
	}
	short := postLines(t, srv.URL, `{"x":[1,2]}`)
	short.Body.Close()
	if short.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dimension line gave %d, want 400", short.StatusCode)
	}
	snap := s.Metrics().Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Route != "query" {
		t.Fatalf("routes %+v, want only query", snap.Routes)
	}
	if r := snap.Routes[0]; r.Rejected != 2 || r.Requests != 2 || r.Offered != 2 || r.Served != 0 {
		t.Fatalf("query route %+v, want offered=rejected=requests=2", r)
	}
}

// TestQueryFarDeadlineServed: a deadline beyond time.Duration's range
// (deadline_ms ≥ ≈ 9.22e12) is no deadline. Converting it wrapped to a
// negative Duration, so the line was shed as "deadline passed at
// admission" and counted under ErrOverloaded.
func TestQueryFarDeadlineServed(t *testing.T) {
	for _, deadline := range []string{"60000", "9.3e12", "1e13", "1e300"} {
		t.Run(deadline, func(t *testing.T) {
			s := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 2, QueueDepth: 8})
			defer s.Close()
			srv := httptest.NewServer(NewHandler(s))
			defer srv.Close()

			resp := postLines(t, srv.URL, `{"x":[1,1,1,1],"deadline_ms":`+deadline+`}`)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || headerInt(t, resp, HeaderServed) != 1 {
				t.Fatalf("status %d served %s, want 200 and 1", resp.StatusCode, resp.Header.Get(HeaderServed))
			}
			if r := s.Metrics().Snapshot().Routes[0]; r.Shed != 0 || r.Served != 1 {
				t.Fatalf("query route %+v, want served=1 shed=0", r)
			}
		})
	}
}

// TestQueryFastPathTakesMarshalledLines: every line json.Marshal writes
// for a QueryRequest takes the fast path, so the fast path is known to
// run rather than silently fall back, and it decodes the same float32
// bits and deadline as json.Unmarshal. Values are drawn at random with
// −0, subnormals and ±MaxFloat32 mixed in.
func TestQueryFastPathTakesMarshalledLines(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	special := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), math.MaxFloat32,
		-math.MaxFloat32, 1, -1, 0.1}
	value := func() float32 {
		switch rng.Intn(3) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			for {
				v := math.Float32frombits(rng.Uint32())
				if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
					return v
				}
			}
		}
		return rng.Float32()
	}
	for n := 0; n < 500; n++ {
		q := QueryRequest{X: make([]float32, rng.Intn(40))}
		for i := range q.X {
			q.X[i] = value()
		}
		switch rng.Intn(4) {
		case 1:
			q.DeadlineMs = rng.ExpFloat64() * 100
		case 2:
			q.DeadlineMs = rng.NormFloat64() * 1e13
		case 3: // any finite float64: random bits below the all-ones exponent
			q.DeadlineMs = math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)
		}
		line, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		if !checkFastPath(t, line) {
			t.Fatalf("fast path refused the marshalled line %s", line)
		}
	}
}

// checkFastPath decodes line on the fast path, and when it takes the line
// requires json.Unmarshal to take it too, with the same float32 bits per
// value and the same deadline. Values are appended behind a prefix, which
// must survive both a taken and a refused line. It reports whether the
// fast path took the line.
func checkFastPath(t *testing.T, line []byte) bool {
	t.Helper()
	prefix := []float32{7, 8}
	xs, deadlineMs, ok := appendQueryLine(slices.Clone(prefix), line)
	if !slices.Equal(xs[:len(prefix)], prefix) {
		t.Fatalf("line %q: prefix changed to %v", line, xs[:len(prefix)])
	}
	if !ok {
		if len(xs) != len(prefix) {
			t.Fatalf("line %q refused but left %d values behind the prefix", line, len(xs)-len(prefix))
		}
		return false
	}
	var q QueryRequest
	if err := json.Unmarshal(line, &q); err != nil {
		t.Fatalf("fast path took %q, json.Unmarshal refuses it: %v", line, err)
	}
	got := xs[len(prefix):]
	if len(got) != len(q.X) {
		t.Fatalf("line %q: fast path %d values, json.Unmarshal %d", line, len(got), len(q.X))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(q.X[i]) {
			t.Fatalf("line %q value %d: fast path %v, json.Unmarshal %v", line, i, got[i], q.X[i])
		}
	}
	if math.Float64bits(deadlineMs) != math.Float64bits(q.DeadlineMs) {
		t.Fatalf("line %q: fast path deadline %v, json.Unmarshal %v", line, deadlineMs, q.DeadlineMs)
	}
	return true
}

// TestQueryHandlerAllocs pins what /query allocates per line: a 16-line
// body of 768-value lines (the benchmark's 3×16×16 input), detector on, on
// a replica that answers from a preallocated buffer. Measured the same way
// at the parent commit it was 41.8 allocations a line: json.Unmarshal took
// 16, ReplicaPool.InputShape 2, boxing each response 1 and the probe
// detector's search about 6. The fast decode, the cached shape, the pooled
// scanner buffer and the detector's reused scratch leave 19.3.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const lines, maxPerLine = 16, 21
	pool, err := NewReplicaPool(1, func(int) (Replica, error) {
		return &fixedReplica{classes: 10, shape: []int{3, 16, 16}, out: tensor.New(8, 10)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(pool, Config{Detect: &DetectConfig{}})
	defer s.Close()
	h := NewHandler(s)
	rng := rand.New(rand.NewSource(1))
	var body []byte
	for i := 0; i < lines; i++ {
		q := QueryRequest{X: make([]float32, 3*16*16)}
		for j := range q.X {
			q.X[j] = rng.Float32()
		}
		line, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, line...), '\n')
	}
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("status %d: %s", rec.Code, rec.Body))
		}
	}
	// Fill the detector's ring for this client and warm the pools.
	for i := 0; i < 8; i++ {
		post()
	}
	perLine := testing.AllocsPerRun(50, post) / lines
	t.Logf("%.1f allocs per line", perLine)
	if perLine > maxPerLine {
		t.Fatalf("/query does %.1f allocs per line, pinned at ≤ %d (41.8 with encoding/json)", perLine, maxPerLine)
	}
}
