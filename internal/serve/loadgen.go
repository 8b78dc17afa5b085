package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"pelta/internal/tensor"
)

// TrafficItem is one sample of the load generator's traffic mix.
type TrafficItem struct {
	// X is the sample [C,H,W].
	X *tensor.Tensor
	// Label is the ground-truth class of the underlying benign sample (for
	// an adversarial item, the label of the sample it was crafted from).
	Label int
	// Adversarial marks crafted probe traffic (FGSM/PGD perturbations).
	Adversarial bool
}

// LoadConfig holds what every phase of an open-loop load run shares. Open
// loop: requests are launched at each phase's offered rate regardless of
// completions, the way real traffic arrives, so an overloaded service
// accumulates queue depth and sheds instead of silently slowing the
// generator down (closed-loop coordination omission).
type LoadConfig struct {
	// Deadline, when > 0, is each request's service deadline.
	Deadline time.Duration
	// Seed draws the traffic mix.
	Seed int64
}

// LoadReport summarizes one phase, or the whole, of a load run.
// BenignServed/AdvServed count served requests per stream and
// BenignShed/AdvShed the per-stream sheds — the fairness question "who
// paid for the overload" is unanswerable from the aggregate Shed alone.
// Accuracy is reported separately for benign and
// adversarial traffic: BenignAccuracy is plain accuracy, AdvRobustAccuracy
// is the fraction of served adversarial probes still classified as their
// true label (the serving-path analogue of robust accuracy).
type LoadReport struct {
	Sent   int `json:"sent"`
	Served int `json:"served"`
	Shed   int `json:"shed"`
	Failed int `json:"failed"`

	BenignSent    int `json:"benign_sent"`
	BenignServed  int `json:"benign_served"`
	BenignCorrect int `json:"benign_correct"`
	BenignShed    int `json:"benign_shed"`
	AdvSent       int `json:"adv_sent"`
	AdvServed     int `json:"adv_served"`
	AdvCorrect    int `json:"adv_correct"`
	AdvShed       int `json:"adv_shed"`

	Elapsed time.Duration `json:"-"`
	Seconds float64       `json:"seconds"`
	// OfferedRate is the configured arrival rate; Throughput the served
	// completion rate actually sustained.
	OfferedRate float64 `json:"offered_rate"`
	Throughput  float64 `json:"throughput"`
	// MeanBatch is the average coalesced batch size over served requests.
	MeanBatch float64 `json:"mean_batch"`
	// LatenciesMs holds every served request's end-to-end latency, for
	// exact quantiles (eval.Quantiles); the service metrics hold the
	// streaming-sketch view of the same distribution.
	LatenciesMs []float64 `json:"-"`

	batchSum int
}

// BenignAccuracy returns the benign traffic's serving accuracy. ok is
// false — and the value NaN — when no benign request was served, so a run
// that shed everything is distinguishable from a genuine 0% accuracy.
func (r *LoadReport) BenignAccuracy() (acc float64, ok bool) {
	if r.BenignServed == 0 {
		return math.NaN(), false
	}
	return float64(r.BenignCorrect) / float64(r.BenignServed), true
}

// AdvRobustAccuracy returns robust accuracy over served adversarial
// probes; ok is false (value NaN) when none were served.
func (r *LoadReport) AdvRobustAccuracy() (acc float64, ok bool) {
	if r.AdvServed == 0 {
		return math.NaN(), false
	}
	return float64(r.AdvCorrect) / float64(r.AdvServed), true
}

// shot is one scheduled request of a load run.
type shot struct {
	due   time.Time
	item  int // index into the traffic pool
	phase int
}

// outcome is one resolved request.
type outcome struct {
	item, phase int
	res         *Result
	err         error
	lat         time.Duration
	end         time.Time
}

// fire launches every shot at its due time on the service clock and waits
// for all of them to resolve. Pacing sleeps only when ahead of schedule
// (rather than ticking once per request), so a generator starved of CPU
// catches up in a burst instead of silently lowering the offered rate —
// without this, an overloaded single-core service throttles its own load
// generator and the admission limit is never reached (coordinated
// omission). Every timestamp — pacing, deadline stamps, latency
// measurements — reads s.Clock(), the same timeline Submit and the workers
// shed by, so the generator is deterministic under a fake clock.
func fire(s *Service, items []TrafficItem, shots []shot, deadline time.Duration) []outcome {
	clk := s.Clock()
	outcomes := make([]outcome, len(shots))
	var wg sync.WaitGroup
	for i, sh := range shots {
		if now := clk.Now(); sh.due.After(now) {
			t := clk.NewTimer(sh.due.Sub(now))
			<-t.C()
		}
		wg.Add(1)
		go func(i int, sh shot) {
			defer wg.Done()
			it := items[sh.item]
			route := "benign"
			if it.Adversarial {
				route = "adv"
			}
			t0 := clk.Now()
			var dl time.Time
			if deadline > 0 {
				dl = t0.Add(deadline)
			}
			res, err := s.Submit(route, it.X, dl)
			end := clk.Now()
			outcomes[i] = outcome{item: sh.item, phase: sh.phase, res: res, err: err, lat: end.Sub(t0), end: end}
		}(i, sh)
	}
	wg.Wait()
	return outcomes
}

// tally folds one outcome into a report.
func (r *LoadReport) tally(items []TrafficItem, o outcome) {
	r.Sent++
	adv := items[o.item].Adversarial
	if adv {
		r.AdvSent++
	} else {
		r.BenignSent++
	}
	switch {
	case o.err == nil:
		r.Served++
		r.LatenciesMs = append(r.LatenciesMs, float64(o.lat)/float64(time.Millisecond))
		r.batchSum += o.res.BatchSize
		if adv {
			r.AdvServed++
			if o.res.Class == items[o.item].Label {
				r.AdvCorrect++
			}
		} else {
			r.BenignServed++
			if o.res.Class == items[o.item].Label {
				r.BenignCorrect++
			}
		}
	case errors.Is(o.err, ErrOverloaded):
		r.Shed++
		if adv {
			r.AdvShed++
		} else {
			r.BenignShed++
		}
	default:
		r.Failed++
	}
}

// finish derives the rate fields once every outcome is tallied.
func (r *LoadReport) finish(elapsed time.Duration) {
	r.Elapsed = elapsed
	r.Seconds = elapsed.Seconds()
	if elapsed > 0 {
		r.Throughput = float64(r.Served) / elapsed.Seconds()
	}
	if r.Served > 0 {
		r.MeanBatch = float64(r.batchSum) / float64(r.Served)
	}
}

// LoadPhase is one step of a phased load trace: Rate req/s for Duration,
// with AdvFrac of the requests drawn from the adversarial pool. Chaining
// phases expresses ramps, bursts and diurnal steps — the traces that
// exercise autoscaler scale-up, scale-down and admission fairness.
type LoadPhase struct {
	Rate     float64       `json:"rate"`
	Duration time.Duration `json:"duration"`
	AdvFrac  float64       `json:"adv_frac"`
}

// PhaseReport is one phase's slice of a phased run.
type PhaseReport struct {
	Phase LoadPhase `json:"phase"`
	LoadReport
}

// PhasedReport is the per-phase plus aggregate view of RunLoadPhases.
type PhasedReport struct {
	Phases []PhaseReport `json:"phases"`
	Total  LoadReport    `json:"total"`
}

// RunLoadPhases fires a phased trace — a fixed-rate run is the one-phase
// case: each phase launches Rate×Duration requests at its open-loop rate,
// drawing each request from the adversarial pool with probability AdvFrac
// and from the benign pool otherwise. Benign items are submitted on route
// "benign", adversarial probes on route "adv", so the per-route counters
// separate the two streams. The timeline is continuous — phase i+1 starts on schedule even if phase i
// still has requests in flight, exactly how a real burst lands on a
// service that has not drained — and every request's outcome is accounted
// to the phase that launched it.
func RunLoadPhases(s *Service, items []TrafficItem, phases []LoadPhase, cfg LoadConfig) (*PhasedReport, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("serve: phased loadgen needs at least one phase")
	}
	var benign, adv []int
	for i, it := range items {
		if it.Adversarial {
			adv = append(adv, i)
		} else {
			benign = append(benign, i)
		}
	}
	for i, p := range phases {
		if !positiveFinite(p.Rate) || p.Duration <= 0 || !(p.AdvFrac >= 0 && p.AdvFrac <= 1) {
			return nil, fmt.Errorf("serve: phase %d (%g req/s for %v, adv frac %g) needs a positive finite rate, a positive duration and an adv frac in [0,1]", i, p.Rate, p.Duration, p.AdvFrac)
		}
		if p.AdvFrac > 0 && len(adv) == 0 {
			return nil, fmt.Errorf("serve: phase %d (adv frac %g) draws adversarial traffic but the pool has none", i, p.AdvFrac)
		}
		if p.AdvFrac < 1 && len(benign) == 0 {
			return nil, fmt.Errorf("serve: phase %d (adv frac %g) draws benign traffic but the pool has none", i, p.AdvFrac)
		}
	}

	clk := s.Clock()
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := clk.Now()
	phaseStart := make([]time.Time, len(phases))
	var shots []shot
	at := start
	for pi, p := range phases {
		phaseStart[pi] = at
		n := int(p.Rate*p.Duration.Seconds() + 0.5)
		if n < 1 {
			n = 1
		}
		interval := time.Duration(float64(time.Second) / p.Rate)
		for j := 0; j < n; j++ {
			idx := 0
			if rng.Float64() < p.AdvFrac {
				idx = adv[rng.Intn(len(adv))]
			} else {
				idx = benign[rng.Intn(len(benign))]
			}
			shots = append(shots, shot{due: at.Add(time.Duration(j) * interval), item: idx, phase: pi})
		}
		at = at.Add(p.Duration)
	}

	outcomes := fire(s, items, shots, cfg.Deadline)
	end := clk.Now()

	rep := &PhasedReport{Phases: make([]PhaseReport, len(phases))}
	if sched := at.Sub(start); sched > 0 {
		// The aggregate offered rate is total launches over the scheduled
		// trace length (not the drain-extended elapsed time).
		rep.Total.OfferedRate = float64(len(shots)) / sched.Seconds()
	}
	phaseEnd := make([]time.Time, len(phases))
	for pi, p := range phases {
		rep.Phases[pi].Phase = p
		rep.Phases[pi].OfferedRate = p.Rate
		phaseEnd[pi] = phaseStart[pi]
	}
	for _, o := range outcomes {
		rep.Phases[o.phase].tally(items, o)
		rep.Total.tally(items, o)
		if o.end.After(phaseEnd[o.phase]) {
			phaseEnd[o.phase] = o.end
		}
	}
	for pi := range rep.Phases {
		rep.Phases[pi].finish(phaseEnd[pi].Sub(phaseStart[pi]))
	}
	rep.Total.finish(end.Sub(start))
	return rep, nil
}
