package serve

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedService builds an autoscaled service over n gated stub replicas with
// a fake clock: workers block in Logits until the test opens the gates, so
// queue depth — the autoscaler's input — is fully test-controlled.
func gatedService(t *testing.T, n int, fc *fakeClock, as AutoscaleConfig, queueDepth int) (*Service, []*stubReplica) {
	t.Helper()
	reps := make([]*stubReplica, n)
	stubs := make([]*stubReplica, n)
	for i := range reps {
		reps[i] = newStubReplica()
		reps[i].gate = make(chan struct{})
		stubs[i] = reps[i]
	}
	s := NewService(stubPool(t, stubs...), Config{
		MaxBatch:   1, // batches of one never arm the MaxDelay timer
		QueueDepth: queueDepth,
		Clock:      fc,
		Autoscale:  &as,
	})
	return s, reps
}

// routeOffered reads a route's offered counter — the race-proof signal
// that every launched Submit has stamped its state before a tick fires.
func routeOffered(s *Service, route string) uint64 {
	for _, r := range s.Metrics().Snapshot().Routes {
		if r.Route == route {
			return r.Offered
		}
	}
	return 0
}

// submitN fires n background submits and returns a WaitGroup that resolves
// when all of them have been answered (served or shed).
func submitN(s *Service, n int) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = s.Submit("t", sample(float32(i+1)), time.Time{})
		}(i)
	}
	return &wg
}

// TestAutoscalerDecisionLoop drives the decision function tick by tick with
// explicit timestamps (the hour-long Interval keeps the background loop
// dormant) and pins every policy edge: scale-up on queue growth, cooldown
// between actions, clamping at Max, and hysteretic scale-down after drain.
func TestAutoscalerDecisionLoop(t *testing.T) {
	fc := newFakeClock()
	s, reps := gatedService(t, 3, fc, AutoscaleConfig{
		Min: 1, Max: 3,
		Interval:   time.Hour, // loop dormant; ticks are explicit step calls
		Cooldown:   30 * time.Millisecond,
		DownStable: 2,
	}, 4)
	defer s.Close()
	open := openGatesOnce(reps...)
	defer open() // a Fatal before the drain must not hang the Close
	t0 := fc.Now()

	if got := s.LiveReplicas(); got != 1 {
		t.Fatalf("initial live replicas %d, want Min=1", got)
	}
	// Idle tick at Min: calm, but never below the lower bound.
	s.scaler.step(t0)
	if got := s.LiveReplicas(); got != 1 {
		t.Fatalf("idle tick moved live replicas to %d", got)
	}

	// Back the service up: 5 submits = 1 serving + 1 staged in the batcher
	// + 3 queued of QueueDepth 4 ⇒ 75% full, above upQueueFrac. offered=5
	// plus the queue length pins the exact stable state before any tick.
	wg := submitN(s, 5)
	waitFor(t, func() bool {
		return routeOffered(s, "t") == 5 && reps[0].serving.Load() == 1 && len(s.queue) == 3
	})

	s.scaler.step(t0.Add(10 * time.Millisecond))
	waitFor(t, func() bool { return s.LiveReplicas() == 2 && reps[1].serving.Load() == 1 && len(s.queue) == 2 })

	// Still hot (2/4 = upQueueFrac), but inside the 30ms cooldown.
	s.scaler.step(t0.Add(20 * time.Millisecond))
	if got := s.LiveReplicas(); got != 2 {
		t.Fatalf("scale-up ignored the cooldown: live %d", got)
	}

	s.scaler.step(t0.Add(45 * time.Millisecond))
	waitFor(t, func() bool { return s.LiveReplicas() == 3 && reps[2].serving.Load() == 1 && len(s.queue) == 1 })

	// Refill the queue and tick hot at Max: the bound must clamp.
	wg2 := submitN(s, 3)
	waitFor(t, func() bool { return routeOffered(s, "t") == 8 && len(s.queue) == 4 })
	s.scaler.step(t0.Add(90 * time.Millisecond))
	if got := s.LiveReplicas(); got != 3 {
		t.Fatalf("scale-up escaped Max: live %d", got)
	}

	// Drain completely, then require DownStable consecutive calm ticks
	// (and the cooldown) before each scale-down.
	open()
	wg.Wait()
	wg2.Wait()
	s.scaler.step(t0.Add(100 * time.Millisecond)) // calm 1
	if got := s.LiveReplicas(); got != 3 {
		t.Fatalf("scaled down after one calm tick: live %d", got)
	}
	s.scaler.step(t0.Add(110 * time.Millisecond)) // calm 2 ⇒ down
	if got := s.LiveReplicas(); got != 2 {
		t.Fatalf("no scale-down after %d calm ticks: live %d", 2, got)
	}
	s.scaler.step(t0.Add(120 * time.Millisecond)) // calm 1
	s.scaler.step(t0.Add(130 * time.Millisecond)) // calm 2, but cooldown runs to t+140
	if got := s.LiveReplicas(); got != 2 {
		t.Fatalf("scale-down ignored the cooldown: live %d", got)
	}
	s.scaler.step(t0.Add(145 * time.Millisecond)) // cooled ⇒ down to Min
	s.scaler.step(t0.Add(155 * time.Millisecond)) // at Min: clamped
	if got := s.LiveReplicas(); got != 1 {
		t.Fatalf("final live %d, want Min=1", got)
	}

	events := s.ScaleEvents()
	wantReasons := []string{"queue-depth", "queue-depth", "drain", "drain"}
	if len(events) != len(wantReasons) {
		t.Fatalf("events %+v, want %d", events, len(wantReasons))
	}
	for i, e := range events {
		if e.Reason != wantReasons[i] {
			t.Errorf("event %d reason %q, want %q", i, e.Reason, wantReasons[i])
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.ScaleUps != 2 || snap.ScaleDowns != 2 || snap.LiveReplicas != 1 {
		t.Fatalf("metrics ups/downs/live = %d/%d/%d, want 2/2/1",
			snap.ScaleUps, snap.ScaleDowns, snap.LiveReplicas)
	}
}

// TestAutoscalerP95Signal pins the latency trigger: an empty queue with a
// windowed p95 above the SLO still scales up, with the "p95-slo" reason.
func TestAutoscalerP95Signal(t *testing.T) {
	fc := newFakeClock()
	reps := []*stubReplica{newStubReplica(), newStubReplica()}
	s := NewService(stubPool(t, reps[0], reps[1]), Config{
		MaxBatch: 1, QueueDepth: 8, Clock: fc,
		Autoscale: &AutoscaleConfig{Min: 1, Max: 2, Interval: time.Hour, TargetP95: 50 * time.Millisecond},
	})
	defer s.Close()
	for i := 0; i < 6; i++ {
		s.metrics.Served("t", 100*time.Millisecond, 1)
	}
	s.scaler.step(fc.Now().Add(time.Millisecond))
	if got := s.LiveReplicas(); got != 2 {
		t.Fatalf("p95 breach did not scale up: live %d", got)
	}
	events := s.ScaleEvents()
	if len(events) != 1 || events[0].Reason != "p95-slo" {
		t.Fatalf("events %+v, want one p95-slo scale-up", events)
	}
	// TakeWindow drained the breach sample set, so the next tick sees a
	// fresh (empty) window and must not re-trigger on stale history.
	s.scaler.step(fc.Now().Add(2 * time.Millisecond))
	if got := len(s.ScaleEvents()); got != 1 {
		t.Fatalf("stale window re-triggered a scale action: %d events", got)
	}
}

// tickOnce advances the fake clock past one autoscale interval and waits
// until the loop has processed the tick (observable as the re-armed next
// timer), so consecutive ticks cannot race — the burst test's determinism
// rests on this sequencing.
func tickOnce(t *testing.T, fc *fakeClock, interval time.Duration) {
	t.Helper()
	waitFor(t, func() bool { return fc.pending() >= 1 })
	fc.Advance(interval)
	waitFor(t, func() bool { return fc.pending() >= 1 })
}

// runAutoscaleBurst plays one fully scripted burst trace against an
// autoscaled service under a fake clock and returns the scale-event log:
// 8 requests pile up behind gated replicas (the burst), the autoscaler
// climbs 1→4, the gates open (the drain), and the calm ticks walk it back
// 4→1. Every timestamp, queue length and decision is pinned, so two runs
// must produce bit-identical logs.
func runAutoscaleBurst(t *testing.T) []ScaleEvent {
	t.Helper()
	const interval = 10 * time.Millisecond
	fc := newFakeClock()
	s, reps := gatedService(t, 4, fc, AutoscaleConfig{
		Min: 1, Max: 4,
		Interval:   interval,
		Cooldown:   2 * interval,
		DownStable: 2,
	}, 8)
	defer s.Close()
	open := openGatesOnce(reps...)
	defer open() // a Fatal before the drain must not hang the Close

	// Burst: 8 requests = 1 serving + 1 staged + 6 queued (QueueDepth 8);
	// offered=8 plus the queue length pins the exact stable state.
	wg := submitN(s, 8)
	waitFor(t, func() bool {
		return routeOffered(s, "t") == 8 && reps[0].serving.Load() == 1 && len(s.queue) == 6
	})

	tickOnce(t, fc, interval) // t+10: 6/8 hot ⇒ 1→2
	waitFor(t, func() bool { return s.LiveReplicas() == 2 && reps[1].serving.Load() == 1 && len(s.queue) == 5 })
	tickOnce(t, fc, interval) // t+20: hot, cooldown holds
	tickOnce(t, fc, interval) // t+30: 5/8 hot, cooled ⇒ 2→3
	waitFor(t, func() bool { return s.LiveReplicas() == 3 && reps[2].serving.Load() == 1 && len(s.queue) == 4 })
	tickOnce(t, fc, interval) // t+40: 4/8 hot, cooldown holds
	tickOnce(t, fc, interval) // t+50: hot, cooled ⇒ 3→4
	waitFor(t, func() bool { return s.LiveReplicas() == 4 && reps[3].serving.Load() == 1 && len(s.queue) == 3 })
	tickOnce(t, fc, interval) // t+60: 3/8 neither hot nor calm

	// Drain: open every gate, let the burst clear.
	open()
	wg.Wait()

	tickOnce(t, fc, interval) // t+70: calm 1
	tickOnce(t, fc, interval) // t+80: calm 2 ⇒ 4→3
	waitFor(t, func() bool { return s.LiveReplicas() == 3 })
	tickOnce(t, fc, interval) // t+90: calm 1
	tickOnce(t, fc, interval) // t+100: calm 2 ⇒ 3→2
	tickOnce(t, fc, interval) // t+110: calm 1
	tickOnce(t, fc, interval) // t+120: calm 2 ⇒ 2→1
	waitFor(t, func() bool { return s.LiveReplicas() == 1 })
	tickOnce(t, fc, interval) // t+130: at Min, clamped

	snap := s.Metrics().Snapshot()
	if snap.ScaleUps != 3 || snap.ScaleDowns != 3 || snap.LiveReplicas != 1 {
		t.Fatalf("metrics ups/downs/live = %d/%d/%d, want 3/3/1",
			snap.ScaleUps, snap.ScaleDowns, snap.LiveReplicas)
	}
	return s.ScaleEvents()
}

// TestAutoscaleBurstDeterministic is the acceptance test for the control
// plane: under a fake clock the autoscaler scales 1→4 replicas during a
// burst and back down to 1 after the drain, and the full scale-event log —
// timestamps, bounds, reasons — is bit-identical across two runs.
func TestAutoscaleBurstDeterministic(t *testing.T) {
	first := runAutoscaleBurst(t)

	base := time.Unix(1000, 0)
	want := []ScaleEvent{
		{At: base.Add(10 * time.Millisecond), From: 1, To: 2, Reason: "queue-depth"},
		{At: base.Add(30 * time.Millisecond), From: 2, To: 3, Reason: "queue-depth"},
		{At: base.Add(50 * time.Millisecond), From: 3, To: 4, Reason: "queue-depth"},
		{At: base.Add(80 * time.Millisecond), From: 4, To: 3, Reason: "drain"},
		{At: base.Add(100 * time.Millisecond), From: 3, To: 2, Reason: "drain"},
		{At: base.Add(120 * time.Millisecond), From: 2, To: 1, Reason: "drain"},
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("scale events\n got %+v\nwant %+v", first, want)
	}

	second := runAutoscaleBurst(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("burst trace not reproducible:\n run1 %+v\n run2 %+v", first, second)
	}
}

// burstOutcome is what one control-plane burst run is judged on.
type burstOutcome struct {
	BenignShed, AdvShed uint64
	Events              []ScaleEvent
}

// runControlBurst plays one scripted benign + adv burst on a fake clock
// against 4 gated stub replicas (QueueDepth 8, MaxBatch 1) under the given
// autoscale bounds and admission, and returns the per-route shed counts:
//
//   - t+0: the calm phase, 2 adv then 8 benign requests, exactly fills one
//     replica (1 serving + 1 staged + 8 queued);
//   - t+10…t+50: five autoscale ticks (an autoscaler with room climbs 1→4,
//     freeing three queue slots);
//   - t+50: the burst, 6 adv then 3 benign requests.
//
// Replicas stay gated until the end, so every shed is decided by queue
// room and token buckets alone. Requests are submitted one at a time and
// each is settled before the next, which makes the counts exact.
func runControlBurst(t *testing.T, as AutoscaleConfig, adm *AdmissionConfig) burstOutcome {
	t.Helper()
	const interval = 10 * time.Millisecond
	as.Interval, as.Cooldown = interval, 2*interval
	fc := newFakeClock()
	reps := make([]*stubReplica, 4)
	for i := range reps {
		reps[i] = newStubReplica()
		reps[i].gate = make(chan struct{})
	}
	s := NewService(stubPool(t, reps...), Config{
		MaxBatch:   1,
		QueueDepth: 8,
		Clock:      fc,
		Autoscale:  &as,
		Admission:  adm,
	})
	defer s.Close()
	open := openGatesOnce(reps...)
	defer open()

	var wg sync.WaitGroup
	var launched int
	var returned atomic.Int32
	// settled: every request not yet answered sits on a busy live replica,
	// in the batcher's one staged batch, or in the queue — nothing is in
	// transit, so the next arrival sees the true queue room.
	settled := func() bool {
		held := launched - int(returned.Load())
		busy := 0
		for _, r := range reps {
			busy += int(r.serving.Load())
		}
		if want := min(s.LiveReplicas(), held); busy != want {
			return false
		}
		staged := 0
		if held > busy {
			staged = 1
		}
		return len(s.queue) == held-busy-staged
	}
	submit := func(script string) {
		for _, c := range script {
			route := "benign"
			if c == 'a' {
				route = "adv"
			}
			launched++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer returned.Add(1)
				if _, err := s.Submit(route, sample(1), time.Time{}); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("%s submit: %v", route, err)
				}
			}()
			waitFor(t, settled)
		}
	}

	submit("aabbbbbbbb")
	for i := 0; i < 5; i++ {
		tickOnce(t, fc, interval)
		waitFor(t, settled)
	}
	submit("aaaaaabbb")
	open()
	wg.Wait()

	var out burstOutcome
	for _, r := range s.Metrics().Snapshot().Routes {
		switch r.Route {
		case "benign":
			out.BenignShed = r.Shed
		case "adv":
			out.AdvShed = r.Shed
		}
	}
	out.Events = s.ScaleEvents()
	return out
}

// TestControlPlaneShedsLessBenign is the control-plane acceptance gate: on
// the same scripted burst, the autoscaled fleet (1–4 replicas) with
// weighted-fair admission (benign=8, adv=1) must shed strictly fewer benign
// requests than a static single replica. Both halves are needed: the
// autoscaler frees the queue room and admission keeps the adv flood out of
// it — a no-op autoscaler leaves no room, and weightless buckets hand the
// room to the flood, so either regression ties the static baseline. Each
// configuration runs twice and must replay identically.
func TestControlPlaneShedsLessBenign(t *testing.T) {
	static := func() burstOutcome { return runControlBurst(t, AutoscaleConfig{Min: 1, Max: 1}, nil) }
	// Rate 18 split 8:1 gives the benign bucket 16 tokens and the adv
	// bucket 2, refilled at 16/s and 2/s on the fake clock.
	controlled := func() burstOutcome {
		return runControlBurst(t, AutoscaleConfig{Min: 1, Max: 4},
			&AdmissionConfig{Rate: 18, Weights: map[string]float64{"benign": 8, "adv": 1}})
	}

	base := time.Unix(1000, 0)
	got := make(map[string]burstOutcome)
	for _, tc := range []struct {
		name string
		run  func() burstOutcome
		want burstOutcome
	}{
		// Static: the calm phase fills the only replica, the whole burst sheds.
		{"static", static, burstOutcome{BenignShed: 3, AdvShed: 6}},
		// Controlled: three scale-ups free three slots, the adv bucket is dry
		// at the burst, and the three benign requests take the room.
		{"controlled", controlled, burstOutcome{BenignShed: 0, AdvShed: 6, Events: []ScaleEvent{
			{At: base.Add(10 * time.Millisecond), From: 1, To: 2, Reason: "queue-depth"},
			{At: base.Add(30 * time.Millisecond), From: 2, To: 3, Reason: "queue-depth"},
			{At: base.Add(50 * time.Millisecond), From: 3, To: 4, Reason: "queue-depth"},
		}}},
	} {
		first, second := tc.run(), tc.run()
		if !reflect.DeepEqual(first, tc.want) {
			t.Errorf("%s run\n got %+v\nwant %+v", tc.name, first, tc.want)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s run not reproducible:\n run1 %+v\n run2 %+v", tc.name, first, second)
		}
		got[tc.name] = first
	}
	if s, c := got["static"].BenignShed, got["controlled"].BenignShed; c >= s {
		t.Fatalf("controlled benign shed %d not below static %d", c, s)
	}
}
