package serve

import (
	"sort"
	"sync"
	"time"

	"pelta/internal/obs"
)

// P2Quantile is a streaming estimator of one quantile via the P² algorithm
// (Jain & Chlamtac, 1985): five markers track the running quantile in O(1)
// memory and time per observation, so the serving metrics never buffer the
// latency history of millions of requests. Below five observations the
// estimate is exact. Not safe for concurrent use; Metrics serializes access.
type P2Quantile struct {
	p     float64
	count int
	// q are marker heights, n marker positions (1-based), want the desired
	// positions and dwant their per-observation increments.
	q     [5]float64
	n     [5]float64
	want  [5]float64
	dwant [5]float64
}

// NewP2Quantile returns an estimator for the p-quantile, p in (0,1).
func NewP2Quantile(p float64) *P2Quantile {
	e := &P2Quantile{p: p}
	e.dwant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add folds one observation into the sketch.
func (e *P2Quantile) Add(x float64) {
	if e.count < 5 {
		e.q[e.count] = x
		e.count++
		if e.count == 5 {
			sort.Float64s(e.q[:])
			e.n = [5]float64{1, 2, 3, 4, 5}
			e.want = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	e.count++

	// Locate the cell of x, extending the extreme markers if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.want {
		e.want[i] += e.dwant[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			// Piecewise-parabolic prediction of the new marker height.
			qn := e.q[i] + s/(e.n[i+1]-e.n[i-1])*
				((e.n[i]-e.n[i-1]+s)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
					(e.n[i+1]-e.n[i]-s)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				// Parabola left the bracket: fall back to linear.
				j := i + int(s)
				e.q[i] += s * (e.q[j] - e.q[i]) / (e.n[j] - e.n[i])
			}
			e.n[i] += s
		}
	}
}

// Value returns the current quantile estimate (exact below 5 samples — the
// same linear interpolation between closest ranks as eval.Quantiles — and 0
// with no samples).
func (e *P2Quantile) Value() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		buf := append([]float64(nil), e.q[:e.count]...)
		sort.Float64s(buf)
		pos := e.p * float64(len(buf)-1)
		lo := int(pos)
		if lo+1 >= len(buf) {
			return buf[lo]
		}
		return buf[lo] + (pos-float64(lo))*(buf[lo+1]-buf[lo])
	}
	return e.q[2]
}

// Count returns how many observations the sketch absorbed.
func (e *P2Quantile) Count() int { return e.count }

// Reset empties the sketch in place, keeping its target quantile, so
// windowed consumers (the autoscaler's TakeWindow drain) reuse one sketch
// per window instead of allocating a fresh one per tick.
func (e *P2Quantile) Reset() {
	*e = P2Quantile{p: e.p, dwant: e.dwant}
}

// routeStats accumulates one route's latency sketches and, in the embedded
// RouteSnapshot, its counters; snapshotLocked fills the derived fields.
type routeStats struct {
	RouteSnapshot

	// batchSamples sums the batch size each served request rode in, so
	// mean batch size = batchSamples/served.
	batchSamples uint64

	totalLatency  time.Duration
	maxLatency    time.Duration
	p50, p95, p99 *P2Quantile
}

func newRouteStats(name string) *routeStats {
	return &routeStats{
		RouteSnapshot: RouteSnapshot{Route: name},
		p50:           NewP2Quantile(0.50),
		p95:           NewP2Quantile(0.95),
		p99:           NewP2Quantile(0.99),
	}
}

// Metrics is the serving metrics core: per-route counters plus streaming
// latency quantiles. All methods are safe for concurrent use.
type Metrics struct {
	mu     sync.Mutex
	clock  Clock
	start  time.Time
	routes map[string]*routeStats

	// Control-plane view: the autoscaler's windowed latency signal plus the
	// scale decisions it took, surfaced so /metrics shows why the replica
	// count moved. The window is maintained only when winOn is set (the
	// service enables it with the autoscaler) — a static service must not
	// pay per-request for a signal nothing drains.
	winOn        bool
	winP95       *P2Quantile
	winN         int
	liveReplicas int
	scaleUps     uint64
	scaleDowns   uint64

	// flagEvents counts unflagged→flagged client transitions seen by the
	// probe detector, service-wide (flags are per client, not per route).
	flagEvents uint64
}

// NewMetrics returns an empty metrics core on the real clock.
func NewMetrics() *Metrics { return NewMetricsAt(nil) }

// NewMetricsAt returns an empty metrics core reading uptime from clock
// (nil = real time), so Snapshot stays consistent with a service running
// under an injected fake clock.
func NewMetricsAt(clock Clock) *Metrics {
	if clock == nil {
		clock = realClock{}
	}
	return &Metrics{clock: clock, start: clock.Now(), routes: make(map[string]*routeStats)}
}

func (m *Metrics) route(name string) *routeStats {
	r := m.routes[name]
	if r == nil {
		r = newRouteStats(name)
		m.routes[name] = r
	}
	return r
}

// Served records one successfully answered request: its end-to-end latency
// and the size of the tensor batch it rode in.
func (m *Metrics) Served(route string, latency time.Duration, batch int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.route(route)
	r.Requests++
	r.Served++
	r.batchSamples += uint64(batch)
	r.totalLatency += latency
	if latency > r.maxLatency {
		r.maxLatency = latency
	}
	ms := float64(latency) / float64(time.Millisecond)
	r.p50.Add(ms)
	r.p95.Add(ms)
	r.p99.Add(ms)
	if m.winOn {
		if m.winP95 == nil {
			m.winP95 = NewP2Quantile(0.95)
		}
		m.winP95.Add(ms)
		m.winN++
	}
}

// EnableWindow turns on the windowed latency signal TakeWindow drains —
// called by the service when the autoscaler is configured.
func (m *Metrics) EnableWindow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.winOn = true
}

// TakeWindow returns the p95 latency (ms) and sample count observed since
// the previous TakeWindow call, then resets the window (always 0, 0 before
// EnableWindow). The autoscaler reads this each decision interval: unlike
// the lifetime sketches, the window drains with the load, so a past burst
// cannot pin the p95 signal high forever and block scale-down.
func (m *Metrics) TakeWindow() (p95Ms float64, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.winP95 != nil {
		p95Ms, n = m.winP95.Value(), m.winN
		m.winP95.Reset() // reuse the sketch across windows
	}
	m.winN = 0
	return p95Ms, n
}

// SetReplicas records the current live-replica gauge.
func (m *Metrics) SetReplicas(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.liveReplicas = n
}

// RecordScale records one autoscaler action from → to live replicas.
func (m *Metrics) RecordScale(from, to int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.liveReplicas = to
	if to > from {
		m.scaleUps++
	} else if to < from {
		m.scaleDowns++
	}
}

// Unserved records one request that ended without an answer, by its
// obs.Outcome* value: requests++ plus exactly one of rejected (malformed —
// uncounted, garbage traffic is invisible to /metrics), errors (inference
// failed) or shed (every shed-* outcome; shed-detect also counts into
// detect_shed). Served is the only other writer of requests, so requests =
// served + shed + rejected + errors by construction.
func (m *Metrics) Unserved(route, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.route(route)
	r.Requests++
	switch outcome {
	case obs.OutcomeRejected:
		r.Rejected++
	case obs.OutcomeError:
		r.Errors++
	case obs.OutcomeShedDetect:
		r.DetectShed++
		fallthrough
	case obs.OutcomeShedDeadlineAdmit, obs.OutcomeShedAdmitLimit, obs.OutcomeShedQueueFull, obs.OutcomeShedDeadlineBatch:
		r.Shed++
	default:
		panic("serve: Metrics.Unserved: no counter for outcome " + outcome)
	}
}

// Offered records one request entering Submit, before any admission
// decision. offered − requests is therefore the in-flight count, and
// offered vs served separates the load a route *asked* for from what it
// got — the difference the fairness story is about.
func (m *Metrics) Offered(route string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.route(route).Offered++
}

// Probe records one query consulted against the probe detector: whether
// it scored a near-duplicate hit, whether the client's flag is active
// after it, and whether this query newly raised the flag.
func (m *Metrics) Probe(route string, hit, flagged, newFlag bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.route(route)
	r.Probed++
	if hit {
		r.ProbeHits++
	}
	if flagged {
		r.FlaggedQueries++
	}
	if newFlag {
		m.flagEvents++
	}
}

// RouteSnapshot is the serializable view of one route's stats.
type RouteSnapshot struct {
	Route    string `json:"route"`
	Offered  uint64 `json:"offered"`  // every Submit attempt, counted before any decision
	Requests uint64 `json:"requests"` // resolved: served + shed + rejected + errors
	Served   uint64 `json:"served"`
	Shed     uint64 `json:"shed"`     // refused by admission control, the probe detector or a deadline
	Rejected uint64 `json:"rejected"` // malformed (wrong shape, non-finite value, bad NDJSON) before admission
	Errors   uint64 `json:"errors"`
	// Probed / ProbeHits / FlaggedQueries / DetectShed expose the probe
	// detector's per-route view; all stay zero (and omitted) when the
	// detector is disabled. DetectShed is a subset of Shed.
	Probed         uint64 `json:"probed,omitempty"`
	ProbeHits      uint64 `json:"probe_hits,omitempty"`
	FlaggedQueries uint64 `json:"flagged_queries,omitempty"`
	DetectShed     uint64 `json:"detect_shed,omitempty"`
	// MeanBatch is the average tensor-batch size a request of this route
	// was coalesced into.
	MeanBatch float64 `json:"mean_batch"`
	MeanMs    float64 `json:"mean_ms"`
	MaxMs     float64 `json:"max_ms"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// Snapshot is the serializable view of the whole metrics core.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`
	// LiveReplicas / ScaleUps / ScaleDowns expose the control-plane state:
	// LiveReplicas is the current live worker count (the full pool size on
	// a statically provisioned service); the scale counters record how
	// often the autoscaler grew or shrank the set and stay zero when it is
	// disabled.
	LiveReplicas int    `json:"live_replicas,omitempty"`
	ScaleUps     uint64 `json:"scale_ups,omitempty"`
	ScaleDowns   uint64 `json:"scale_downs,omitempty"`
	// FlagEvents counts the probe detector's unflagged→flagged client
	// transitions (zero and omitted when detection is disabled).
	FlagEvents uint64          `json:"flag_events,omitempty"`
	Routes     []RouteSnapshot `json:"routes"`
}

// Snapshot returns a consistent copy of every route's stats, sorted by
// route name.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

// snapshotLocked assembles the full view under one already-held lock
// section. Every exposition path (JSON snapshot, Prometheus collector)
// goes through here, so uptime, control-plane gauges, and route counters
// always describe one consistent instant — never fields read across
// separate lock acquisitions.
func (m *Metrics) snapshotLocked() Snapshot {
	s := Snapshot{
		UptimeSec:    m.clock.Now().Sub(m.start).Seconds(),
		LiveReplicas: m.liveReplicas,
		ScaleUps:     m.scaleUps,
		ScaleDowns:   m.scaleDowns,
		FlagEvents:   m.flagEvents,
	}
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := m.routes[name]
		rs := r.RouteSnapshot
		rs.P50Ms, rs.P95Ms, rs.P99Ms = r.p50.Value(), r.p95.Value(), r.p99.Value()
		rs.MaxMs = float64(r.maxLatency) / float64(time.Millisecond)
		if r.Served > 0 {
			rs.MeanBatch = float64(r.batchSamples) / float64(r.Served)
			rs.MeanMs = float64(r.totalLatency) / float64(r.Served) / float64(time.Millisecond)
		}
		s.Routes = append(s.Routes, rs)
	}
	return s
}

// Collect renders the metrics core as registry samples for Prometheus
// exposition. It takes one snapshot under a single lock section, so every
// emitted sample describes the same instant.
func (m *Metrics) Collect() []obs.Metric {
	m.mu.Lock()
	s := m.snapshotLocked()
	m.mu.Unlock()

	out := []obs.Metric{
		obs.Gauge("pelta_uptime_seconds", "Service uptime on its own clock.", s.UptimeSec, nil),
		obs.Gauge("pelta_live_replicas", "Workers currently live (autoscaler gauge; pool size when static).", float64(s.LiveReplicas), nil),
		obs.Counter("pelta_scale_ups_total", "Autoscaler scale-up actions.", float64(s.ScaleUps), nil),
		obs.Counter("pelta_scale_downs_total", "Autoscaler scale-down actions.", float64(s.ScaleDowns), nil),
		obs.Counter("pelta_flag_events_total", "Probe-detector unflagged-to-flagged client transitions.", float64(s.FlagEvents), nil),
	}
	for _, r := range s.Routes {
		l := map[string]string{"route": r.Route}
		out = append(out,
			obs.Counter("pelta_requests_offered_total", "Submit attempts per route, before any admission decision.", float64(r.Offered), l),
			obs.Counter("pelta_requests_total", "Resolved requests per route (served + shed + rejected + errors).", float64(r.Requests), l),
			obs.Counter("pelta_served_total", "Successfully answered requests per route.", float64(r.Served), l),
			obs.Counter("pelta_shed_total", "Requests shed by admission control or deadline per route.", float64(r.Shed), l),
			obs.Counter("pelta_rejected_total", "Malformed requests refused before admission per route.", float64(r.Rejected), l),
			obs.Counter("pelta_errors_total", "Requests failed in the inference path per route.", float64(r.Errors), l),
			obs.Counter("pelta_probed_total", "Queries consulted against the probe detector per route.", float64(r.Probed), l),
			obs.Counter("pelta_probe_hits_total", "Probe-detector near-duplicate hits per route.", float64(r.ProbeHits), l),
			obs.Counter("pelta_flagged_queries_total", "Queries observed while the client's flag was active, per route.", float64(r.FlaggedQueries), l),
			obs.Counter("pelta_detect_shed_total", "Flagged queries shed by the probe detector per route (subset of shed).", float64(r.DetectShed), l),
			obs.Gauge("pelta_batch_mean", "Mean tensor-batch size a served request rode in, per route.", r.MeanBatch, l),
			obs.Gauge("pelta_latency_mean_ms", "Mean end-to-end latency per route in milliseconds.", r.MeanMs, l),
			obs.Gauge("pelta_latency_max_ms", "Maximum end-to-end latency per route in milliseconds.", r.MaxMs, l),
		)
		for _, q := range [...]struct {
			tag string
			v   float64
		}{{"0.5", r.P50Ms}, {"0.95", r.P95Ms}, {"0.99", r.P99Ms}} {
			out = append(out, obs.Gauge("pelta_latency_ms", "Streaming latency quantiles per route in milliseconds.", q.v,
				map[string]string{"route": r.Route, "quantile": q.tag}))
		}
	}
	return out
}
