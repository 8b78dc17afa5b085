package serve

import (
	"math"
	"testing"
	"time"
)

// TestRunLoadOnFakeClock is the regression test for the loadgen
// clock-consistency bugfix: deadlines, latencies and elapsed time must all
// read the injected service clock. Before the fix the generator stamped
// deadlines from time.Now() — decades past the fake timeline — so workers
// never shed them and latencies measured scheduler noise instead of clock
// time. The scenario: a gated replica and QueueDepth 1 let exactly one of
// 8 requests into service; the rest either shed at the full queue
// immediately or — once the fake clock jumps 100ms past the 50ms deadline
// — shed on deadline, wherever they wait. Served=1/Shed=7 holds under any
// goroutine interleaving, and the served latency is exactly the advance.
func TestRunLoadOnFakeClock(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	rep.gate = make(chan struct{})
	s := NewService(stubPool(t, rep), Config{MaxBatch: 1, QueueDepth: 1, Clock: fc})
	defer s.Close()
	open := openGatesOnce(rep)
	defer open() // unblock the deferred Close even on Fatal

	items := []TrafficItem{{X: sample(1), Label: 2}} // stub argmax is the last class
	type res struct {
		rep *PhasedReport
		err error
	}
	done := make(chan res, 1)
	go func() {
		// One phase of 2e9 req/s × 4ns = 8 requests; at that rate the
		// pacing interval truncates to 0, so every request is due
		// immediately and no pacing timer waits on the fake clock.
		phase := LoadPhase{Rate: 2e9, Duration: 4 * time.Nanosecond}
		r, err := RunLoadPhases(s, items, []LoadPhase{phase}, LoadConfig{Deadline: 50 * time.Millisecond, Seed: 1})
		done <- res{r, err}
	}()

	// Every request stamps its deadline (fake t0) before entering Submit,
	// so offered=8 in the metrics means all 8 deadlines are fixed on the
	// frozen clock — only then may the clock move.
	waitFor(t, func() bool {
		if rep.serving.Load() != 1 {
			return false
		}
		for _, r := range s.Metrics().Snapshot().Routes {
			if r.Route == "benign" && r.Offered == 8 {
				return true
			}
		}
		return false
	})

	fc.Advance(100 * time.Millisecond)
	open()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	r := &out.rep.Total

	if r.Sent != 8 || r.Served != 1 || r.Shed != 7 || r.Failed != 0 {
		t.Fatalf("accounting %+v, want sent=8 served=1 shed=7", r)
	}
	if r.BenignShed != 7 || r.BenignSent != 8 || r.AdvSent != 0 {
		t.Fatalf("per-route accounting %+v, want benign_shed=7", r)
	}
	// The served request waited exactly the fake-clock advance — a wall
	// clock would have measured microseconds here, and the two deadline
	// sheds only happen at all because the generator stamps deadlines on
	// the service clock.
	if len(r.LatenciesMs) != 1 || r.LatenciesMs[0] != 100 {
		t.Fatalf("latencies %v, want exactly [100] on the fake timeline", r.LatenciesMs)
	}
	if r.Seconds != 0.1 {
		t.Fatalf("elapsed %v s, want exactly 0.1 on the fake timeline", r.Seconds)
	}
	if r.Throughput != 10 {
		t.Fatalf("throughput %v, want exactly 10 req/s", r.Throughput)
	}
	if acc, ok := r.BenignAccuracy(); !ok || acc != 1 {
		t.Fatalf("benign accuracy %v ok=%v, want 1.0 over the single served request", acc, ok)
	}
	// A one-phase run's only phase accounts for everything the total does.
	if p := out.rep.Phases[0]; len(out.rep.Phases) != 1 || p.Sent != 8 || p.Served != 1 || p.Shed != 7 || p.Seconds != 0.1 {
		t.Fatalf("single phase %+v does not match the total", p.LoadReport)
	}
}

// TestAccuracyZeroServedExplicit pins the (value, ok) bugfix: a report
// that served nothing must be distinguishable from genuine 0% accuracy.
func TestAccuracyZeroServedExplicit(t *testing.T) {
	r := &LoadReport{}
	if _, ok := r.BenignAccuracy(); ok {
		t.Fatal("zero-served benign accuracy reported ok")
	}
	if _, ok := r.AdvRobustAccuracy(); ok {
		t.Fatal("zero-served robust accuracy reported ok")
	}
	r.AdvServed, r.AdvCorrect = 4, 0
	if acc, ok := r.AdvRobustAccuracy(); !ok || acc != 0 {
		t.Fatalf("genuine 0%% robust accuracy: %v ok=%v", acc, ok)
	}
}

// TestRunLoadPhasesAccounting runs a short real-clock two-phase trace and
// checks the per-phase, per-route bookkeeping adds up.
func TestRunLoadPhasesAccounting(t *testing.T) {
	rep := newStubReplica()
	s := NewService(stubPool(t, rep), Config{MaxBatch: 4, MaxDelay: time.Millisecond, QueueDepth: 64})
	defer s.Close()
	items := []TrafficItem{
		{X: sample(1), Label: 2}, // stub argmax is always the last class
		{X: sample(2), Label: 0}, // always misclassified
		{X: sample(3), Label: 2, Adversarial: true},
	}
	phases := []LoadPhase{
		{Rate: 500, Duration: 40 * time.Millisecond, AdvFrac: 0},
		{Rate: 1000, Duration: 40 * time.Millisecond, AdvFrac: 0.5},
	}
	prep, err := RunLoadPhases(s, items, phases, LoadConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Phases) != 2 {
		t.Fatalf("phases %d", len(prep.Phases))
	}
	if got, want := prep.Phases[0].Sent, 20; got != want {
		t.Fatalf("phase 1 sent %d, want %d", got, want)
	}
	if got, want := prep.Phases[1].Sent, 40; got != want {
		t.Fatalf("phase 2 sent %d, want %d", got, want)
	}
	if prep.Phases[0].AdvSent != 0 {
		t.Fatalf("pure benign phase sent %d adv requests", prep.Phases[0].AdvSent)
	}
	if prep.Phases[1].AdvSent == 0 {
		t.Fatal("burst phase drew no adversarial traffic at adv-frac 0.5")
	}
	var sent, served, shed, failed int
	for _, p := range prep.Phases {
		sent += p.Sent
		served += p.Served
		shed += p.Shed
		failed += p.Failed
		if p.Served+p.Shed+p.Failed != p.Sent {
			t.Fatalf("phase accounting broken: %+v", p.LoadReport)
		}
		if p.BenignSent+p.AdvSent != p.Sent {
			t.Fatalf("per-route accounting broken: %+v", p.LoadReport)
		}
	}
	tot := prep.Total
	if tot.Sent != sent || tot.Served != served || tot.Shed != shed || tot.Failed != failed {
		t.Fatalf("total %+v disagrees with phase sums (%d/%d/%d/%d)", tot, sent, served, shed, failed)
	}
	if tot.Failed != 0 {
		t.Fatalf("%d failed", tot.Failed)
	}
	if len(tot.LatenciesMs) != tot.Served {
		t.Fatalf("%d latency samples, want %d", len(tot.LatenciesMs), tot.Served)
	}
	// Phase draws are seeded: the same seed must reproduce the same mix.
	rep2 := newStubReplica()
	s2 := NewService(stubPool(t, rep2), Config{MaxBatch: 4, MaxDelay: time.Millisecond, QueueDepth: 64})
	defer s2.Close()
	again, err := RunLoadPhases(s2, items, phases, LoadConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if again.Phases[1].AdvSent != prep.Phases[1].AdvSent {
		t.Fatalf("seeded adv draw differs: %d vs %d", again.Phases[1].AdvSent, prep.Phases[1].AdvSent)
	}
}

// TestRunLoadPhasesValidation pins the pool and phase checks.
func TestRunLoadPhasesValidation(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{})
	defer s.Close()
	benignOnly := []TrafficItem{{X: sample(1)}}
	if _, err := RunLoadPhases(s, benignOnly, []LoadPhase{{Rate: 10, Duration: time.Millisecond, AdvFrac: 0.5}}, LoadConfig{}); err == nil {
		t.Fatal("adv phase over a benign-only pool accepted")
	}
	advOnly := []TrafficItem{{X: sample(1), Adversarial: true}}
	if _, err := RunLoadPhases(s, advOnly, []LoadPhase{{Rate: 10, Duration: time.Millisecond, AdvFrac: 0.5}}, LoadConfig{}); err == nil {
		t.Fatal("benign-drawing phase over an adv-only pool accepted")
	}
	if _, err := RunLoadPhases(s, benignOnly, nil, LoadConfig{}); err == nil {
		t.Fatal("empty phase list accepted")
	}
	for _, bad := range []LoadPhase{
		{Rate: 0, Duration: time.Millisecond}, {Rate: 10},
		{Rate: math.NaN(), Duration: time.Millisecond}, {Rate: math.Inf(1), Duration: time.Millisecond},
		{Rate: 10, Duration: time.Millisecond, AdvFrac: math.NaN()}, {Rate: 10, Duration: time.Millisecond, AdvFrac: -0.5},
	} {
		if _, err := RunLoadPhases(s, benignOnly, []LoadPhase{bad}, LoadConfig{}); err == nil {
			t.Fatalf("phase %+v accepted", bad)
		}
	}
}
