package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"sync"
	"time"

	"pelta/internal/eval"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/obs"
)

const (
	flClients = 4 // three honest, one sign-flipping
	flSkew    = 0.5
	// flShard is every client's sample count. Skewed sharding deals uneven
	// shards whose sizes follow the seed; cutting each to the same length
	// keeps a round's work (four full batches per client) the same for
	// every seed while the label skew stays.
	flShard = 64
	// flRoundsPerSecond converts --seconds into the fixed round count the
	// engine needs up front; a round took about 0.3 s when this was sized.
	flRoundsPerSecond = 3
	// flMinAcc gates the final global model once it has had flGateRounds
	// rounds to train: multi-Krum must have kept the sign-flipper from
	// stopping the federation's progress.
	flMinAcc     = 0.9
	flGateRounds = 30
)

// flTrace links the spans of one federation: round spans are reserved up
// front so a connection can name its round, and a connection's span ID is
// kept so the client behind the socket can name the connection.
type flTrace struct {
	tr       *tracer
	roundIDs []uint64

	mu       sync.Mutex
	connSpan map[connKey]uint64 // the conn.update span of a client's round
	aggCalls int
}

type connKey struct {
	client string
	round  int
}

func (t *flTrace) round(r int) uint64 {
	if r < 1 || r > len(t.roundIDs) {
		return 0
	}
	return t.roundIDs[r-1]
}

type tracedConn struct {
	fl.Conn
	t *flTrace
}

func (c *tracedConn) Update(req fl.UpdateRequest) (fl.UpdateResponse, error) {
	id, t0 := c.t.tr.begin()
	c.t.mu.Lock()
	c.t.connSpan[connKey{c.ID(), req.Round}] = id
	c.t.mu.Unlock()
	resp, err := c.Conn.Update(req)
	parent := c.t.round(req.Round)
	c.t.tr.record(span{ID: id, Parent: parent, Req: parent, Layer: "fl", Name: "conn.update", Start: t0})
	return resp, err
}

type tracedClient struct {
	fl.Client
	t *flTrace
}

func (c *tracedClient) Update(req fl.UpdateRequest) (fl.UpdateResponse, error) {
	id, t0 := c.t.tr.begin()
	resp, err := c.Client.Update(req)
	c.t.mu.Lock()
	parent := c.t.connSpan[connKey{c.ID(), req.Round}]
	c.t.mu.Unlock()
	c.t.tr.record(span{ID: id, Parent: parent, Req: c.t.round(req.Round), Layer: "models", Name: "client.update", Start: t0})
	return resp, err
}

type tracedAgg struct {
	fl.Aggregator
	t *flTrace
}

func (a *tracedAgg) Aggregate(prev fl.Weights, updates []fl.Weights, counts, staleness []int, lambda float64) (fl.Weights, error) {
	id, t0 := a.t.tr.begin()
	w, err := a.Aggregator.Aggregate(prev, updates, counts, staleness, lambda)
	// The server aggregates once per round, in round order, on one goroutine.
	a.t.aggCalls++
	parent := a.t.round(a.t.aggCalls)
	a.t.tr.record(span{ID: id, Parent: parent, Req: parent, Layer: "fl", Name: "agg.aggregate", Start: t0})
	return w, err
}

// flEnv is one federation: four clients, each behind its own loopback TCP
// listener, and the server's connections to them.
type flEnv struct {
	fx     *fixture
	trace  *flTrace
	global *models.ViT
	init   fl.Weights
	agg    fl.Aggregator
	conns  []fl.Conn
	lis    []net.Listener
	served sync.WaitGroup

	kernels  *obs.KernelStats
	results  []fl.RoundResult
	finalAcc float64
}

func buildFL(fx *fixture, tr *tracer) (*flEnv, error) {
	e := &flEnv{fx: fx, global: newViT(fx.seed + seedModel)}
	e.init = fl.Snapshot(e.global)
	if tr != nil {
		e.trace = &flTrace{tr: tr, connSpan: map[connKey]uint64{}}
	}
	agg, err := fl.NewAggregator(fl.DefenseMultiKrum)
	if err != nil {
		return nil, err
	}
	e.agg = agg
	if tr != nil {
		e.agg = &tracedAgg{Aggregator: agg, t: e.trace}
	}

	first := make([]int, flShard)
	for i := range first {
		first[i] = i
	}
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: fx.sz.lr, Seed: fx.seed + seedTrain}
	for i, shard := range fx.train.ShardsSkewed(flClients, flSkew, fx.seed+seedShards) {
		if shard.Len() < flShard {
			e.close()
			return nil, fmt.Errorf("shard %d has %d samples, fewer than %d", i, shard.Len(), flShard)
		}
		shard = shard.Subset(first)
		name := fmt.Sprintf("client-%d", i)
		m := newViT(fx.seed + seedReplica + int64(i))
		var c fl.Client = fl.NewHonestClient(name, m, shard, tc)
		if i == flClients-1 {
			c = fl.NewSignFlipClient(name, m, shard, tc)
		}
		if tr != nil {
			c = &tracedClient{Client: c, t: e.trace}
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.lis = append(e.lis, lis)
		e.served.Add(1)
		go func() {
			defer e.served.Done()
			// ServeClient returns once the listener is closed.
			_ = fl.ServeClient(lis, c)
		}()
		conn, err := fl.Dial(lis.Addr().String(), name)
		if err != nil {
			e.close()
			return nil, err
		}
		if tr != nil {
			conn = &tracedConn{Conn: conn, t: e.trace}
		}
		e.conns = append(e.conns, conn)
	}
	return e, nil
}

func (e *flEnv) close() {
	for _, c := range e.conns {
		c.Close()
	}
	for _, l := range e.lis {
		l.Close()
	}
	e.served.Wait()
}

// run federates for the number of rounds d stands for, from the same
// initial global model every time, and checks the outcome.
func (e *flEnv) run(d time.Duration) (*pass, error) {
	rounds := max(3, int(math.Round(d.Seconds()*flRoundsPerSecond)))
	if err := fl.Apply(e.global, e.init); err != nil {
		return nil, err
	}
	if e.trace != nil {
		e.trace.roundIDs = make([]uint64, rounds)
		for i := range e.trace.roundIDs {
			e.trace.roundIDs[i] = e.trace.tr.newID()
		}
		e.trace.aggCalls = 0
		var unhook func()
		e.kernels, unhook = hookKernels()
		defer unhook()
	}
	srv := &fl.AsyncServer{
		Global: e.global,
		Conns:  e.conns,
		Config: fl.AsyncConfig{Rounds: rounds, Workers: lanes, Deterministic: true, Agg: e.agg},
	}
	p, err := measure(d, func(r *recorder, _ *pass) error {
		prev, round := time.Now(), 0
		var prevNS int64
		if e.trace != nil {
			prevNS = e.trace.tr.now()
		}
		// Eval runs once per aggregated round, so its call times are the
		// round boundaries. It scores nothing: accuracy is read once, after
		// the timed rounds.
		srv.Eval = func(models.Model) float64 {
			now := time.Now()
			round++
			r.op(prev, now, float64(now.Sub(prev))/1e6, 1)
			prev = now
			if e.trace != nil {
				id, end := e.trace.round(round), e.trace.tr.now()
				e.trace.tr.record(span{ID: id, Req: id, Layer: "fl", Name: "fl.round", Start: prevNS, End: end})
				prevNS = end
			}
			return 0
		}
		var err error
		e.results, err = srv.Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	p.Attempted = flClients * rounds
	p.Failed = p.Attempted - srv.Stats().Merged
	if srv.Drops() != 0 || p.Failed != 0 {
		p.note("drops", float64(srv.Drops()))
	}
	if len(e.results) != rounds {
		p.wrong(fmt.Sprintf("server returned %d round results, want %d", len(e.results), rounds))
	}
	e.finalAcc = models.Accuracy(e.global, e.fx.val.X, e.fx.val.Y)
	p.note("final_acc", e.finalAcc)
	if e.fx.sz.gates && rounds >= flGateRounds && e.finalAcc < flMinAcc {
		p.wrong(fmt.Sprintf("final global accuracy %.3f below %.2f after %d rounds", e.finalAcc, flMinAcc, rounds))
	}
	// Two runs of one seed and one round count must print the same checksum.
	crc := crc32.NewIEEE()
	for _, t := range fl.Snapshot(e.global).Data {
		for _, v := range t {
			b := math.Float32bits(v)
			crc.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
		}
	}
	p.note("weights_crc32", float64(crc.Sum32()))
	return p, nil
}

// layers attributes the traced rounds: local training is the client span,
// transport what a connection span spends outside it, and the round's self
// time the server's own bookkeeping (snapshot, apply, encoding).
func (e *flEnv) layers(p *pass, spans []span) (map[string]float64, error) {
	m := map[string]float64{}
	roundSpans, connSpans := named(spans, "fl.round"), named(spans, "conn.update")
	clientSpans, aggSpans := named(spans, "client.update"), named(spans, "agg.aggregate")
	if len(roundSpans) == 0 || len(connSpans) == 0 || len(clientSpans) == 0 || len(aggSpans) == 0 {
		return nil, errors.New("traced federation is missing a span kind")
	}
	self := selfTimes(spans)
	selfMs := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(self[s.ID]) / 1e6
		}
		return out
	}
	m["fl.client_update_ms"] = eval.Quantile(durationsMs(clientSpans), 0.5)
	m["fl.transport_ms"] = eval.Quantile(selfMs(connSpans), 0.5)
	m["fl.aggregate_ms"] = eval.Quantile(durationsMs(aggSpans), 0.5)
	m["fl.round_self_ms"] = eval.Quantile(selfMs(roundSpans), 0.5)
	var up, down float64
	for _, r := range e.results {
		up += float64(r.UpBytes)
		down += float64(r.DownBytes)
	}
	m["fl.up_bytes_per_round"] = up / float64(len(e.results))
	m["fl.down_bytes_per_round"] = down / float64(len(e.results))
	m["fl.final_acc"] = e.finalAcc
	var compute int64
	for _, s := range clientSpans {
		compute += s.dur()
	}
	kernelFracs(m, [3]int64{}, e.kernels.SnapshotNS(), compute)
	return m, nil
}
