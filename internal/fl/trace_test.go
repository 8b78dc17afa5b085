package fl

import (
	"sync"
	"testing"
	"time"

	"pelta/internal/obs"
)

// tickClock advances a fixed step on every Now() call, making the span
// arithmetic of the round engine exact: each timestamp pair measured
// around a section differs by step × (calls in between).
type tickClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newTickClock(step time.Duration) *tickClock {
	return &tickClock{t: time.Unix(2000, 0), step: step}
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// timedConn answers instantly with a fixed snapshot and a declared
// client-side training time.
type timedConn struct {
	name    string
	w       Weights
	trainNS int64
}

func (c *timedConn) Update(req UpdateRequest) (UpdateResponse, error) {
	return UpdateResponse{ClientID: c.name, Weights: c.w, Samples: 1, TrainNS: c.trainNS}, nil
}

func (c *timedConn) ID() string   { return c.name }
func (c *timedConn) Close() error { return nil }

// TestServerRoundSpansExact pins the engine's phase accounting on a tick
// clock in the sequential regime: with one worker no two Now() pairs
// interleave, so with a 1ms step each bracketed section (broadcast, one
// client round-trip, aggregate) reads exactly 1ms and transport is the sum
// of the round-trips net of the declared training time.
func TestServerRoundSpansExact(t *testing.T) {
	g := newTestModel(7)
	w := Snapshot(g)
	const trainNS = int64(400_000) // 0.4ms per client
	srv := sequentialServer(g, []Conn{
		&timedConn{name: "a", w: w, trainNS: trainNS},
		&timedConn{name: "b", w: w, trainNS: trainNS},
	}, 3)
	srv.Now = newTickClock(time.Millisecond).Now
	results, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("rounds %d", len(results))
	}
	ms := time.Millisecond.Nanoseconds()
	for i, r := range results {
		sp := r.Span()
		want := obs.RoundSpan{
			Round:       i + 1,
			Clients:     2,
			TrainNS:     2 * trainNS,
			TransportNS: 2 * (ms - trainNS),
			AggregateNS: ms,
			BroadcastNS: ms,
		}
		if sp != want {
			t.Fatalf("round %d span %+v, want %+v", i+1, sp, want)
		}
	}

	spans := RoundSpans(results)
	if len(spans) != 3 || spans[2].Round != 3 {
		t.Fatalf("RoundSpans %+v", spans)
	}
	mets := RoundMetrics(results)
	byKey := map[string]float64{}
	for _, m := range mets {
		byKey[m.Name+m.Labels["phase"]] = m.Value
	}
	if byKey["pelta_fl_rounds_total"] != 3 || byKey["pelta_fl_client_updates_total"] != 6 {
		t.Fatalf("fl metrics %+v", byKey)
	}
	if byKey["pelta_fl_phase_ns_totaltrain"] != float64(3*2*trainNS) {
		t.Fatalf("train phase total %v", byKey["pelta_fl_phase_ns_totaltrain"])
	}
	if byKey["pelta_fl_phase_ns_totalaggregate"] != float64(3*ms) {
		t.Fatalf("aggregate phase total %v", byKey["pelta_fl_phase_ns_totalaggregate"])
	}
}

// TestAsyncRoundSpans pins the phase accounting with a worker per client:
// per-round spans carry the merged cohort's declared training time, a
// positive transport share (workers bracket each round-trip on the clock),
// and exact 1ms aggregate/broadcast sections under the barriered
// deterministic mode.
func TestAsyncRoundSpans(t *testing.T) {
	g := newTestModel(11)
	w := Snapshot(g)
	const trainNS = int64(400_000)
	srv := &AsyncServer{
		Global: g,
		Conns: []Conn{
			&timedConn{name: "a", w: w, trainNS: trainNS},
			&timedConn{name: "b", w: w, trainNS: trainNS},
			&timedConn{name: "c", w: w, trainNS: trainNS},
		},
		Config: AsyncConfig{Rounds: 2, Deterministic: true},
		Now:    newTickClock(time.Millisecond).Now,
	}
	results, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("rounds %d", len(results))
	}
	ms := time.Millisecond.Nanoseconds()
	for i, r := range results {
		sp := r.Span()
		if sp.Round != i+1 || sp.Clients != 3 {
			t.Fatalf("round %d span %+v", i+1, sp)
		}
		if sp.TrainNS != 3*trainNS {
			t.Fatalf("round %d train %d, want %d", i+1, sp.TrainNS, 3*trainNS)
		}
		// Each worker brackets its round-trip with two 1ms ticks, so every
		// merged update contributes at least 1ms − trainNS of transport.
		if sp.TransportNS < 3*(ms-trainNS) {
			t.Fatalf("round %d transport %d too small", i+1, sp.TransportNS)
		}
		if sp.AggregateNS != ms || sp.BroadcastNS != ms {
			t.Fatalf("round %d aggregate/broadcast %d/%d, want 1ms each", i+1, sp.AggregateNS, sp.BroadcastNS)
		}
	}
}
