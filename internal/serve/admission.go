package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AdmissionConfig enables weighted-fair admission control: every route owns
// a token bucket, and a request is admitted to the shared queue only if its
// route's bucket has a token. A flood on one route (say, "adv" probe
// traffic) drains only that route's bucket, so it sheds at its own rate
// limit instead of filling the shared queue and starving the other routes.
type AdmissionConfig struct {
	// Rate is the total sustained admission rate in requests/second,
	// divided across routes by weight. Rate <= 0 disables admission
	// control entirely (every request goes straight to the shared queue —
	// the pre-control-plane behavior).
	Rate float64
	// Burst sizes each bucket in seconds of its route's sustained rate
	// (default 1s): a route idle for Burst can absorb that much traffic at
	// once before shedding.
	Burst time.Duration
	// Weights maps route names to relative shares. A route's sustained
	// rate is Rate·w/ΣW, where ΣW sums the configured weights; a route not
	// listed here gets weight 1 against the same ΣW. Nil or empty weights
	// give every route an independent bucket at the full Rate.
	Weights map[string]float64
}

// withDefaults fills unset knobs.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Burst <= 0 {
		c.Burst = time.Second
	}
	return c
}

// bucket is one route's token bucket; refill is lazy on the service clock,
// so admission decisions are deterministic under a fake clock.
type bucket struct {
	tokens float64
	cap    float64
	rate   float64 // tokens per second
	last   time.Time
}

// admitter holds the per-route buckets.
type admitter struct {
	mu      sync.Mutex
	cfg     AdmissionConfig
	sumW    float64
	buckets map[string]*bucket
}

func newAdmitter(cfg AdmissionConfig) *admitter {
	a := &admitter{cfg: cfg.withDefaults(), buckets: make(map[string]*bucket)}
	for _, w := range a.cfg.Weights {
		if w > 0 {
			a.sumW += w
		}
	}
	if a.sumW <= 0 {
		a.sumW = 1
	}
	return a
}

// allow consumes one token from route's bucket at time now, creating the
// bucket full on first sight of the route. It reports false when the bucket
// is empty — the caller sheds with ErrOverloaded.
func (a *admitter) allow(route string, now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[route]
	if b == nil {
		w := a.cfg.Weights[route]
		if w <= 0 {
			w = 1
		}
		rate := a.cfg.Rate * w / a.sumW
		capacity := rate * a.cfg.Burst.Seconds()
		if capacity < 1 {
			capacity = 1
		}
		b = &bucket{tokens: capacity, cap: capacity, rate: rate, last: now}
		a.buckets[route] = b
	}
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.cap {
			b.tokens = b.cap
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// ParseWeights parses a route-weight spec of the form
// "benign=8,adv=1,query=4" into an AdmissionConfig.Weights map.
func ParseWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	w := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("serve: route weight %q, want route=weight", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || !positiveFinite(v) {
			return nil, fmt.Errorf("serve: route weight %q needs a positive number", part)
		}
		w[kv[0]] = v
	}
	return w, nil
}

// positiveFinite reports whether an operator-typed rate or weight is usable:
// v <= 0 alone lets NaN through, and +Inf turns every share into NaN.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
