package serve

import "time"

// AutoscaleConfig enables the replica autoscaler: the service starts Min
// live workers and a control loop grows/shrinks the live set between Min
// and Max, driven by two signals read every Interval on the service clock:
//
//   - queue depth — the admission queue holding at least upQueueFrac
//     (half) of its capacity means the live replicas are falling behind;
//     scale up.
//   - windowed p95 latency — served latency since the last tick exceeding
//     TargetP95 means the SLO is burning even if the queue still fits;
//     scale up.
//
// Scale-down is deliberately more reluctant (hysteresis): the queue must
// sit at or below downQueueFrac (a tenth) of its capacity and the windowed
// p95 inside half the SLO for DownStable consecutive ticks. Cooldown
// separates any two scale actions so the loop cannot flap. Every decision is
// appended to Service.ScaleEvents and counted in Metrics (live_replicas,
// scale_ups, scale_downs).
type AutoscaleConfig struct {
	// Min and Max bound the live replica count. Min defaults to 1; Max
	// defaults to (and is clamped at) the replica pool size.
	Min, Max int
	// TargetP95 is the latency SLO; 0 disables the latency signal and
	// leaves queue depth as the only trigger.
	TargetP95 time.Duration
	// Interval is the decision period (default 100ms).
	Interval time.Duration
	// Cooldown is the minimum time between two scale actions (default
	// 2×Interval).
	Cooldown time.Duration
	// DownStable is how many consecutive calm ticks precede a scale-down
	// (default 3).
	DownStable int
}

// withDefaults fills unset knobs and clamps the bounds to the pool.
func (c AutoscaleConfig) withDefaults(poolSize int) AutoscaleConfig {
	if c.Max <= 0 || c.Max > poolSize {
		c.Max = poolSize
	}
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Min > c.Max {
		c.Min = c.Max
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.Interval
	}
	if c.DownStable <= 0 {
		c.DownStable = 3
	}
	return c
}

// The queue-depth thresholds, as fractions of Config.QueueDepth: a tick
// scales up when the queue is at least upQueueFrac full and counts as calm
// only when it is at most downQueueFrac full.
const (
	upQueueFrac   = 0.5
	downQueueFrac = 0.1
)

// ScaleEvent is one autoscaler action, timestamped on the service clock.
type ScaleEvent struct {
	At     time.Time `json:"at"`
	From   int       `json:"from"`
	To     int       `json:"to"`
	Reason string    `json:"reason"` // "queue-depth", "p95-slo" or "drain"
}

// autoscaler is the decision state of the control loop. step is the whole
// policy; the loop in Service merely calls it every Interval.
type autoscaler struct {
	s    *Service
	cfg  AutoscaleConfig
	last time.Time // last scale action
	calm int       // consecutive calm ticks
}

// step evaluates one decision tick at time now. The signals (queue depth,
// windowed p95) are read inside the service lock so a concurrent Close
// cannot race worker startup, and the decision is a pure function of those
// signals plus (last, calm) — which is what makes the loop reproducible
// under a fake clock.
func (a *autoscaler) step(now time.Time) {
	s := a.s
	p95, n := s.metrics.TakeWindow()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	live := s.liveN
	qFrac := float64(len(s.queue)) / float64(s.cfg.QueueDepth)
	targetMs := float64(a.cfg.TargetP95) / float64(time.Millisecond)
	hotQueue := qFrac >= upQueueFrac
	hotP95 := targetMs > 0 && n > 0 && p95 > targetMs
	calmTick := qFrac <= downQueueFrac && (targetMs <= 0 || n == 0 || p95 <= targetMs/2)
	cooled := a.last.IsZero() || !now.Before(a.last.Add(a.cfg.Cooldown))
	switch {
	case hotQueue || hotP95:
		a.calm = 0
		if live < a.cfg.Max && cooled {
			reason := "queue-depth"
			if !hotQueue {
				reason = "p95-slo"
			}
			if s.scaleLocked(live+1, now, reason) {
				a.last = now
			}
		}
	case calmTick:
		a.calm++
		if live > a.cfg.Min && a.calm >= a.cfg.DownStable && cooled {
			if s.scaleLocked(live-1, now, "drain") {
				a.last = now
				a.calm = 0
			}
		}
	default:
		a.calm = 0
	}
}

// autoscaleLoop drives the decision loop on the service clock until Close.
func (s *Service) autoscaleLoop() {
	defer s.wg.Done()
	for {
		t := s.cfg.Clock.NewTimer(s.scaler.cfg.Interval)
		select {
		case <-s.scaleQuit:
			t.Stop()
			return
		case now := <-t.C():
			s.scaler.step(now)
		}
	}
}
