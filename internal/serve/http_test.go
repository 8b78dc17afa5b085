package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
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
