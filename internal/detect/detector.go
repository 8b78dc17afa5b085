package detect

import (
	"sort"
	"sync"
	"time"

	"pelta/internal/tensor"
)

// Config tunes the detector. The zero value selects the defaults, which
// are calibrated on the repo's synthetic CIFAR traffic: ε-ball attack
// iterates sit one to two orders of magnitude inside the threshold while
// same-class benign pairs (shared prototype, independent noise) stay well
// outside it.
type Config struct {
	// Grid is the fingerprint pooling grid per side (default DefaultGrid).
	Grid int
	// K consults the K-th nearest neighbor (default 2): one accidental
	// near-duplicate never scores a hit, a probe stream has arbitrarily
	// many.
	K int
	// Threshold is the K-th-NN distance at or below which a query counts
	// as a near-duplicate hit (cosine distance, default 0.01). The default
	// sits an order of magnitude above typical ε-ball iterate distances
	// and several times below the closest same-class benign pairs of the
	// synthetic CIFAR traffic.
	Threshold float64
	// Window is the per-client fingerprint ring capacity (default 64).
	Window int
	// MatchM of the last MatchW queries must hit to flag the client
	// (defaults 3 of 8) — a burst of coincidences is forgiven, a sustained
	// near-duplicate stream is not.
	MatchM int
	MatchW int
	// TTL expires buffered fingerprints: an entry older than TTL is
	// dropped before the next search (default 60s). Expiry is evaluated
	// against the timestamps passed to Observe, never wall time.
	TTL time.Duration
	// Decay is how long a flag outlives its last flagging query (default
	// 30s). A client is unflagged exactly when now reaches the boundary.
	Decay time.Duration
	// MaxClients bounds the tracked-client table (default 4096); the
	// least-recently-seen client is evicted first.
	MaxClients int
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Grid <= 0 {
		c.Grid = DefaultGrid
	}
	if c.K <= 0 {
		c.K = 2
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.01
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MatchM <= 0 {
		c.MatchM = 3
	}
	if c.MatchW <= 0 {
		c.MatchW = 8
	}
	if c.MatchW < c.MatchM {
		c.MatchW = c.MatchM
	}
	if c.TTL <= 0 {
		c.TTL = 60 * time.Second
	}
	if c.Decay <= 0 {
		c.Decay = 30 * time.Second
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 4096
	}
	return c
}

// entry is one buffered fingerprint.
type entry struct {
	fp []float32
	at time.Time
}

// clientState is one client's ring buffer plus flagging state.
type clientState struct {
	name string
	// ring holds the last Window fingerprints, oldest first after
	// normalization by head: logical index i lives at (head+i)%cap.
	ring []entry
	head int
	// hits is the m-of-w decision window over the last MatchW queries.
	hits     []bool
	hitHead  int
	hitN     int
	hitCount int

	flaggedUntil time.Time
	lastSeen     time.Time

	observed uint64
	hitTotal uint64
	flaggedQ uint64
}

// Decision is the detector's verdict on one observed query.
type Decision struct {
	// Hit reports a near-duplicate: the K-th-NN distance over the
	// client's buffered fingerprints was at or below the threshold.
	Hit bool
	// Dist is that K-th-NN distance (+Inf with fewer than K neighbors).
	Dist float64
	// Flagged reports whether the client's flag is active after this
	// query (the query that completes m-of-w counts as flagged).
	Flagged bool
	// NewFlag marks an unflagged→flagged transition on this query.
	NewFlag bool
}

// Stats is the detector's aggregate view.
type Stats struct {
	// Clients is the tracked-client count; FlaggedClients how many of
	// them hold an active flag at the Stats timestamp.
	Clients        int
	FlaggedClients int
	// Observed / Hits / FlaggedQueries are lifetime query counters;
	// FlagEvents counts unflagged→flagged transitions.
	Observed       uint64
	Hits           uint64
	FlaggedQueries uint64
	FlagEvents     uint64
}

// Detector holds per-client similarity caches. Safe for concurrent use;
// every decision depends only on the observed client's own history.
type Detector struct {
	mu         sync.Mutex
	cfg        Config
	clients    map[string]*clientState
	observed   uint64
	hits       uint64
	flaggedQ   uint64
	flagEvents uint64

	// vecs and nn are ObserveFingerprint's search scratch, reused under mu
	// so a steady-state observation allocates nothing.
	vecs [][]float32
	nn   []Neighbor
}

// New returns a Detector with cfg's unset fields defaulted.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults(), clients: make(map[string]*clientState)}
}

// Config returns the detector's effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Observe fingerprints one query sample and folds it into client's
// similarity cache at time now, returning the flagging decision. now must
// be non-decreasing per client (the serving layer passes its Clock, which
// is); timestamps are never read from wall time here.
func (d *Detector) Observe(client string, x *tensor.Tensor, now time.Time) Decision {
	return d.ObserveFingerprint(client, Fingerprint(x, d.cfg.Grid), now)
}

// ObserveFingerprint is Observe for a precomputed fingerprint. The
// detector takes ownership of fp.
func (d *Detector) ObserveFingerprint(client string, fp []float32, now time.Time) Decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.clients[client]
	if c == nil {
		d.evictLocked(now)
		c = &clientState{
			name: client,
			ring: make([]entry, 0, d.cfg.Window),
			hits: make([]bool, d.cfg.MatchW),
		}
		d.clients[client] = c
	}
	c.lastSeen = now
	c.observed++
	d.observed++

	// Expire stale fingerprints: an entry is dropped once its age reaches
	// TTL, so a client idle past the window starts from a cold cache.
	for len(c.ring) > 0 {
		oldest := c.ring[c.head%len(c.ring)]
		if now.Sub(oldest.at) < d.cfg.TTL {
			break
		}
		c.dropOldest()
	}
	if len(c.ring) == 0 {
		// A fully expired cache also resets the m-of-w window: hit bits
		// describe queries against fingerprints that no longer exist, and
		// keeping them would re-flag a long-idle client on its first
		// innocuous query back.
		for i := range c.hits {
			c.hits[i] = false
		}
		c.hitHead, c.hitN, c.hitCount = 0, 0, 0
	}

	// K-th-NN over the buffered fingerprints, oldest first so tie order is
	// insertion order.
	d.vecs = d.vecs[:0]
	for i := range c.ring {
		d.vecs = append(d.vecs, c.ring[(c.head+i)%len(c.ring)].fp)
	}
	d.nn = nearest(d.nn, d.vecs, fp, d.cfg.K)
	dist := kth(d.nn, d.cfg.K)
	hit := dist <= d.cfg.Threshold

	// Slide the m-of-w window.
	if c.hitN == len(c.hits) {
		if c.hits[c.hitHead] {
			c.hitCount--
		}
		c.hits[c.hitHead] = hit
		c.hitHead = (c.hitHead + 1) % len(c.hits)
	} else {
		c.hits[(c.hitHead+c.hitN)%len(c.hits)] = hit
		c.hitN++
	}
	if hit {
		c.hitCount++
		c.hitTotal++
		d.hits++
	}

	dec := Decision{Hit: hit, Dist: dist}
	wasFlagged := now.Before(c.flaggedUntil)
	if c.hitCount >= d.cfg.MatchM {
		c.flaggedUntil = now.Add(d.cfg.Decay)
	}
	dec.Flagged = now.Before(c.flaggedUntil)
	dec.NewFlag = dec.Flagged && !wasFlagged
	if dec.NewFlag {
		d.flagEvents++
	}
	if dec.Flagged {
		c.flaggedQ++
		d.flaggedQ++
	}

	// Buffer the fingerprint last: a query is never its own neighbor.
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, entry{fp: fp, at: now})
	} else {
		c.ring[c.head] = entry{fp: fp, at: now}
		c.head = (c.head + 1) % len(c.ring)
	}
	return dec
}

// dropOldest removes the ring's oldest entry, preserving logical order.
func (c *clientState) dropOldest() {
	n := len(c.ring)
	h := c.head % n
	// Shift the wrapped suffix down over the vacated head slot by
	// rebuilding in logical order — rings are small (≤ Window).
	out := make([]entry, 0, cap(c.ring))
	for i := 1; i < n; i++ {
		out = append(out, c.ring[(h+i)%n])
	}
	c.ring = out
	c.head = 0
}

// evictLocked drops the least-recently-seen client when the table is at
// MaxClients (ties evict the lexicographically smallest name, so eviction
// is deterministic).
func (d *Detector) evictLocked(now time.Time) {
	if len(d.clients) < d.cfg.MaxClients {
		return
	}
	var victim *clientState
	for _, c := range d.clients {
		if victim == nil || c.lastSeen.Before(victim.lastSeen) ||
			(c.lastSeen.Equal(victim.lastSeen) && c.name < victim.name) {
			victim = c
		}
	}
	if victim != nil {
		delete(d.clients, victim.name)
	}
}

// Flagged reports whether client holds an active flag at time now.
func (d *Detector) Flagged(client string, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.clients[client]
	return c != nil && now.Before(c.flaggedUntil)
}

// Stats returns the aggregate counters; FlaggedClients is evaluated at
// now on the caller's clock.
func (d *Detector) Stats(now time.Time) Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Stats{
		Clients:        len(d.clients),
		Observed:       d.observed,
		Hits:           d.hits,
		FlaggedQueries: d.flaggedQ,
		FlagEvents:     d.flagEvents,
	}
	for _, c := range d.clients {
		if now.Before(c.flaggedUntil) {
			s.FlaggedClients++
		}
	}
	return s
}

// ClientSnapshot is one client's full detector state in logical order —
// the bit-identity surface of the determinism property tests.
type ClientSnapshot struct {
	Client       string
	Fingerprints [][]float32 // oldest first
	At           []time.Time // per-fingerprint observation times
	Hits         []bool      // the m-of-w window, oldest first
	HitCount     int
	FlaggedUntil time.Time
	Observed     uint64
	HitTotal     uint64
	FlaggedQ     uint64
}

// Snapshot returns every client's state sorted by client name. Fingerprint
// slices are copied; two runs over the same trace must produce deeply
// equal snapshots.
func (d *Detector) Snapshot() []ClientSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.clients))
	for name := range d.clients {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ClientSnapshot, 0, len(names))
	for _, name := range names {
		c := d.clients[name]
		cs := ClientSnapshot{
			Client:       name,
			HitCount:     c.hitCount,
			FlaggedUntil: c.flaggedUntil,
			Observed:     c.observed,
			HitTotal:     c.hitTotal,
			FlaggedQ:     c.flaggedQ,
		}
		for i := range c.ring {
			e := c.ring[(c.head+i)%len(c.ring)]
			cs.Fingerprints = append(cs.Fingerprints, append([]float32(nil), e.fp...))
			cs.At = append(cs.At, e.at)
		}
		for i := 0; i < c.hitN; i++ {
			cs.Hits = append(cs.Hits, c.hits[(c.hitHead+i)%len(c.hits)])
		}
		out = append(out, cs)
	}
	return out
}
