package fl

import (
	"fmt"
	"time"

	"pelta/internal/models"
	"pelta/internal/obs"
)

// RoundResult summarizes one federation round.
type RoundResult struct {
	Round int
	// Accuracy is the global model's validation accuracy after
	// aggregation, when the server has an Eval hook.
	Accuracy float64
	// Notes carries client telemetry (e.g. attack outcome reports) and the
	// engine's own drop / refusal lines.
	Notes []string
	// DownBytes is the broadcast model's WireBytes, its size in a weight
	// frame; UpBytes sums the WireBytes of the merged client updates — the
	// §VI bandwidth accounting.
	DownBytes int
	UpBytes   int
	// Merged, StaleMerged and Dropped describe the round's composition:
	// updates folded in, the subset that arrived late from an older model
	// version, and clients lost in transit.
	Merged      int
	StaleMerged int
	Dropped     int
	// Timing is the round's phase span: client training (client-measured),
	// update transport (round-trip wall minus training), the aggregation
	// rule plus apply, and the model broadcast (snapshot plus wire size).
	// Timestamps read the engine's clock, so spans are deterministic when
	// a fake clock is injected.
	Timing obs.RoundSpan
}

// Span returns the round's phase span, stamped with its round number and
// merged-client count.
func (r *RoundResult) Span() obs.RoundSpan { return r.Timing }

// AsyncConfig tunes the asynchronous round engine.
type AsyncConfig struct {
	// Rounds is the number of aggregations to run.
	Rounds int
	// Workers bounds concurrent client updates (0 = one per client).
	Workers int
	// Sampler draws the per-round client cohort (nil = FullSampler).
	Sampler Sampler
	// Quorum is the number of updates that closes a round in async mode
	// (0 = every sampled client — still async, but round-complete).
	Quorum int
	// MaxStaleness is the oldest trained-on version still merged; older
	// straggler updates are rejected (0 = DefaultMaxStaleness).
	MaxStaleness int
	// Lambda is the staleness-decay exponent of the aggregation weights
	// (0 = DefaultLambda; set negative to force exactly 0).
	Lambda float64
	// Deterministic barriers each round on its full cohort and merges in
	// client order, so the global model is bit-identical for any Workers
	// value — with a FullSampler, the plain broadcast → update → FedAvg
	// loop of Fig. 1 (Workers 1 also visits the clients one at a time, in
	// order). It is how Table-reproduction runs and tests stay
	// seeded-reproducible.
	Deterministic bool
	// Agg is the aggregation defense applied when a round closes (nil =
	// FedAvgAgg). Robust rules still see the staleness discounts, so the
	// two mechanisms compose.
	Agg Aggregator
}

// Defaults applied by AsyncServer.Run for zero AsyncConfig fields.
const (
	DefaultMaxStaleness = 2
	DefaultLambda       = 1.0
)

// AsyncServer is the trusted FL aggregator of Fig. 1 and the package's one
// round engine — asynchronous and sharded: clients run
// concurrently on a goroutine worker pool over the Conn transport, the
// server samples a client cohort per round, and a BufferedAggregator merges
// updates as they arrive instead of barriering on the slowest client.
// Clients that error mid-round are dropped from that round (and resampled
// later); straggler updates trained on an older model version are merged
// with a staleness discount or rejected beyond MaxStaleness.
type AsyncServer struct {
	Global models.Model
	Conns  []Conn
	Config AsyncConfig
	// Eval, when set, scores the global model after every aggregation.
	Eval func(m models.Model) float64
	// Now overrides the clock the round-phase spans are stamped on
	// (nil = time.Now).
	Now func() time.Time

	stats AggregatorStats
	drops int
}

// Stats returns the aggregator counters of the last Run.
func (s *AsyncServer) Stats() AggregatorStats { return s.stats }

// Drops returns how many client updates failed in transit during the last
// Run (transport errors, client crashes).
func (s *AsyncServer) Drops() int { return s.drops }

// asyncJob is one dispatched client update.
type asyncJob struct {
	client  int
	version int
	req     UpdateRequest
}

// taggedUpdate is a worker's result, tagged with its provenance.
type taggedUpdate struct {
	client  int
	version int
	resp    UpdateResponse
	err     error
	// wallNS is the dispatch-to-receipt round-trip measured in the worker;
	// wallNS − resp.TrainNS is the update's transport share.
	wallNS int64
}

// Run executes the configured number of aggregation rounds and returns one
// RoundResult per aggregation.
func (s *AsyncServer) Run() ([]RoundResult, error) {
	n := len(s.Conns)
	if n == 0 {
		return nil, fmt.Errorf("fl: async server has no clients")
	}
	cfg := s.Config
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fl: async server needs Rounds > 0")
	}
	if cfg.Sampler == nil {
		cfg.Sampler = FullSampler{}
	}
	if cfg.Workers <= 0 || cfg.Workers > n {
		cfg.Workers = n
	}
	if cfg.MaxStaleness <= 0 {
		cfg.MaxStaleness = DefaultMaxStaleness
	}
	switch {
	case cfg.Lambda < 0:
		cfg.Lambda = 0
	case cfg.Lambda == 0:
		cfg.Lambda = DefaultLambda
	}
	if cfg.Deterministic {
		// A deterministic round barriers on its cohort: no update is ever
		// stale, and quorum adapts to the cohort size below.
		cfg.MaxStaleness = 0
	}

	now := nowOr(s.Now)

	jobs := make(chan asyncJob, n)
	resCh := make(chan taggedUpdate, n)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			for j := range jobs {
				t0 := now()
				resp, err := s.Conns[j.client].Update(j.req)
				resCh <- taggedUpdate{client: j.client, version: j.version, resp: resp, err: err,
					wallNS: now().Sub(t0).Nanoseconds()}
			}
		}()
	}
	defer close(jobs)

	s.stats = AggregatorStats{}
	s.drops = 0
	agg := NewBufferedAggregator(cfg.Quorum, cfg.MaxStaleness, cfg.Lambda)
	agg.Rule = cfg.Agg

	version := 0 // aggregations applied so far; round r = version+1
	inflight := 0
	busy := make([]bool, n)
	// wall holds each client's latest round-trip so drained updates can be
	// attributed to transport even after they sat buffered in the
	// aggregator across an aggregation boundary.
	wall := make([]int64, n)
	tB0 := now()
	snapshot := Snapshot(s.Global)
	down, err := WireBytes(snapshot)
	if err != nil {
		return nil, fmt.Errorf("fl: framing round 1 broadcast: %w", err)
	}
	broadcastNS := now().Sub(tB0).Nanoseconds()
	// Per-version telemetry accumulated between aggregations.
	notes := make([]string, 0, n)
	dropped := 0
	retried := false

	// launch dispatches the cohort of round version+1, skipping clients
	// still busy with an older round (they rejoin once their straggler
	// update lands). It returns how many jobs it enqueued and the cohort
	// size for deterministic quorum accounting.
	launch := func() (started, cohort int) {
		want := cfg.Sampler.Sample(version+1, n)
		for _, ci := range want {
			if ci < 0 || ci >= n {
				continue
			}
			cohort++
			if busy[ci] {
				continue
			}
			busy[ci] = true
			inflight++
			started++
			jobs <- asyncJob{client: ci, version: version, req: UpdateRequest{Round: version + 1, Weights: snapshot}}
		}
		return started, cohort
	}

	// quorumFor adapts the configured quorum to the round's cohort size;
	// the aggregator's Quorum is re-pinned after every launch so Ready()
	// is the engine's single round-closing criterion.
	quorumFor := func(cohort int) int {
		if cfg.Deterministic || cfg.Quorum <= 0 {
			return cohort
		}
		q := cfg.Quorum
		if q > cohort {
			q = cohort
		}
		return q
	}

	results := make([]RoundResult, 0, cfg.Rounds)
	started, cohort := launch()
	if started == 0 {
		return nil, fmt.Errorf("fl: round 1 sampled no available clients")
	}
	agg.Quorum = quorumFor(cohort)

	// Ensure stragglers finish before Run returns so no worker touches a
	// client after the caller regains ownership of the fleet.
	defer func() {
		for inflight > 0 {
			<-resCh
			inflight--
		}
	}()

	for version < cfg.Rounds {
		tu := <-resCh
		inflight--
		busy[tu.client] = false
		wall[tu.client] = tu.wallNS
		if tu.err != nil {
			dropped++
			s.drops++
			notes = append(notes, fmt.Sprintf("%s: dropped (%v)", s.Conns[tu.client].ID(), tu.err))
		} else {
			if ok, why := agg.Offer(tu.client, tu.resp, tu.version, version); !ok {
				notes = append(notes, fmt.Sprintf("%s: update refused (%s)", tu.resp.ClientID, why))
			} else if tu.resp.Note != "" {
				notes = append(notes, tu.resp.ClientID+": "+tu.resp.Note)
			}
		}

		// Close the round when the quorum is met — or when every dispatched
		// client has reported and whatever arrived is all this round gets.
		for version < cfg.Rounds && agg.Pending() > 0 &&
			(agg.Ready() || inflight == 0) {
			tA0 := now()
			w, merged, err := agg.Drain(version, snapshot)
			if err != nil {
				return results, fmt.Errorf("fl: round %d aggregation: %w", version+1, err)
			}
			if err := Apply(s.Global, w); err != nil {
				return results, fmt.Errorf("fl: round %d apply: %w", version+1, err)
			}
			aggregateNS := now().Sub(tA0).Nanoseconds()
			res := RoundResult{
				Round:     version + 1,
				Notes:     notes,
				DownBytes: down,
				Merged:    len(merged),
				Dropped:   dropped,
			}
			var train, transport int64
			for _, p := range merged {
				if version-p.version > 0 {
					res.StaleMerged++
				}
				up, err := WireBytes(p.resp.Weights)
				if err != nil {
					return results, fmt.Errorf("fl: round %d: %w", version+1, err)
				}
				res.UpBytes += up
				train += p.resp.TrainNS
				if t := wall[p.client] - p.resp.TrainNS; t > 0 {
					transport += t
				}
			}
			res.Timing = obs.RoundSpan{
				Round:       version + 1,
				Clients:     len(merged),
				TrainNS:     train,
				TransportNS: transport,
				AggregateNS: aggregateNS,
				BroadcastNS: broadcastNS,
			}
			if s.Eval != nil {
				res.Accuracy = s.Eval(s.Global)
			}
			results = append(results, res)
			version++
			notes, dropped, retried = make([]string, 0, n), 0, false
			if version >= cfg.Rounds {
				break
			}
			tB := now()
			snapshot = Snapshot(s.Global)
			if down, err = WireBytes(snapshot); err != nil {
				return results, fmt.Errorf("fl: framing round %d broadcast: %w", version+1, err)
			}
			broadcastNS = now().Sub(tB).Nanoseconds()
			_, cohort = launch()
			agg.Quorum = quorumFor(cohort)
		}

		if version < cfg.Rounds && inflight == 0 && agg.Pending() == 0 {
			// Every dispatched client dropped or was refused: retry the
			// cohort once per round; a second empty wave means the fleet
			// is dead and the federation cannot make progress.
			if retried {
				return results, fmt.Errorf("fl: round %d: no usable client updates", version+1)
			}
			retried = true
			if started, _ := launch(); started == 0 {
				return results, fmt.Errorf("fl: round %d: no dispatchable clients", version+1)
			}
		}
	}
	s.stats = agg.Stats()
	return results, nil
}
