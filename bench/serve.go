package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pelta/internal/core"
	"pelta/internal/eval"
	"pelta/internal/obs"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

const (
	// bodyLines is the NDJSON lines per POST of serve_saturated; with two
	// connections in flight it fills the default MaxBatch of 8 four times.
	bodyLines = 16
	// pacedRate is serve_paced's offered load in requests per second, about
	// a tenth of what the two replicas can serve.
	pacedRate = 200
	// lateLimitMs flags a paced run whose generator's p99 lateness exceeds
	// it: latency is timed from the due instant, so a late generator shows
	// up in the numbers.
	lateLimitMs = 2.0

	headerSpan = "X-Bench-Span"
)

// body is one pre-encoded POST and the validation samples its lines carry.
type body struct {
	data []byte
	idx  []int
}

// encodeLines renders every validation sample as one NDJSON request line.
func encodeLines(fx *fixture) ([][]byte, error) {
	lines := make([][]byte, fx.val.Len())
	for i := range lines {
		b, err := json.Marshal(serve.QueryRequest{X: fx.val.X.Slice(i).Data()})
		if err != nil {
			return nil, err
		}
		lines[i] = append(b, '\n')
	}
	return lines, nil
}

// makeBodies deals every validation sample once, in seeded order, into
// bodies of n lines for connection conn. A connection cycles through its
// bodies, so a sample repeats only after all the others: the probe detector
// (64-entry ring per client) must never see benign traffic as a near-
// duplicate stream.
func makeBodies(lines [][]byte, seed int64, conn, n int) []body {
	perm := tensor.NewRNG(seed + seedTraffic + int64(conn)).Perm(len(lines))
	var out []body
	for at := 0; at+n <= len(perm); at += n {
		b := body{idx: perm[at : at+n]}
		for _, i := range b.idx {
			b.data = append(b.data, lines[i]...)
		}
		out = append(out, b)
	}
	return out
}

// pacedSchedule returns the due offset of each of n requests at rate per
// second: a fixed grid, so a stall delays later requests' sends but not
// their due times.
func pacedSchedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// tracedReplica records one span around every batch a replica runs.
type tracedReplica struct {
	serve.Replica
	tr  *tracer
	idx int
}

func (r *tracedReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	id, t0 := r.tr.begin()
	out, err := r.Replica.Logits(x)
	// A batch mixes lines of several POSTs, so the span is a root: it has
	// no single request to hang under.
	r.tr.record(span{ID: id, Layer: "core", Name: "replica.logits", Start: t0,
		Attrs: map[string]float64{"replica": float64(r.idx), "batch": float64(x.Dim(0))}})
	return out, err
}

// traceHandler records the server side of every POST under the client span
// named in the request header.
func traceHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
		id, t0 := tr.begin()
		next.ServeHTTP(w, r)
		tr.record(span{ID: id, Parent: parent, Req: parent, Layer: "serve", Name: "serve.handler", Start: t0})
	})
}

// serveEnv is an in-process service behind a real loopback socket, with one
// keep-alive HTTP client per load connection.
type serveEnv struct {
	fx    *fixture
	paced bool
	tr    *tracer

	svc     *serve.Service
	sms     []*core.ShieldedModel
	refSM   *core.ShieldedModel
	srv     *http.Server
	srvDone chan error
	url     string
	clients [lanes]*http.Client
	bodies  [lanes][]body
	// cursor is each connection's position in its cycle of bodies; it runs
	// on across warm-up and sections, so no sample comes round early.
	cursor [lanes]int
	// codecBytes are the request bytes replayed through encoding/json for
	// serve.codec_us_per_line.
	codecBytes []byte

	// t0 and t1 bound the last measured section and c0 and c1 are the
	// exported counters at those instants, so that warm-up and the checks
	// after the section stay out of the per-layer numbers.
	t0, t1 time.Time
	c0, c1 counters
}

// counters are the totals the programs under test export: enclave world
// switches and bytes moved, and kernel time per family.
type counters struct {
	switches, bytes float64
	kernelNS        [3]int64
}

func (e *serveEnv) countersNow() counters {
	var c counters
	for _, sm := range e.sms {
		t := sm.Enclave().Metrics()
		c.switches += float64(t.WorldSwitches)
		c.bytes += float64(t.BytesIn + t.BytesOut)
	}
	if ks := e.svc.KernelStats(); ks != nil {
		c.kernelNS = ks.SnapshotNS()
	}
	return c
}

func buildServe(fx *fixture, tr *tracer, paced bool) (*serveEnv, error) {
	e := &serveEnv{fx: fx, paced: paced, tr: tr}
	lines, err := encodeLines(fx)
	if err != nil {
		return nil, err
	}
	n := bodyLines
	if paced {
		n = 1
	}
	for c := range e.bodies {
		e.bodies[c] = makeBodies(lines, fx.seed, c, n)
	}
	e.codecBytes = e.bodies[0][0].data

	pool, err := serve.NewReplicaPool(lanes, func(i int) (serve.Replica, error) {
		m, err := fx.copyModel(i)
		if err != nil {
			return nil, err
		}
		sm, err := core.NewShieldedModel(m, 0)
		if err != nil {
			return nil, err
		}
		e.sms = append(e.sms, sm)
		var rep serve.Replica = &serve.ShieldedReplica{SM: sm}
		if tr != nil {
			rep = &tracedReplica{Replica: rep, tr: tr, idx: i}
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	ref, err := fx.copyModel(lanes)
	if err != nil {
		return nil, err
	}
	if e.refSM, err = core.NewShieldedModel(ref, 0); err != nil {
		return nil, err
	}

	// MaxBatch, MaxDelay and QueueDepth stay at the package defaults: the
	// benchmark measures the configuration the repo ships.
	var cfg serve.Config
	if !paced {
		cfg.Detect = &serve.DetectConfig{}
	}
	if tr != nil {
		cfg.Trace = &serve.TraceConfig{Sample: 1, Cap: 1 << 16}
	}
	e.svc = serve.NewService(pool, cfg)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.svc.Close()
		return nil, err
	}
	h := serve.NewHandler(e.svc)
	if tr != nil {
		h = traceHandler(h, tr)
	}
	e.srv = &http.Server{Handler: h}
	e.srvDone = make(chan error, 1)
	go func() { e.srvDone <- e.srv.Serve(lis) }()
	e.url = "http://" + lis.Addr().String() + "/query"
	for c := range e.clients {
		e.clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	// Warm the connections, the replicas' arenas and the batcher, so the
	// measured section starts in steady state.
	for c := range e.clients {
		for k := 0; k < 2; k++ {
			if _, _, err := e.post(c, e.nextBody(c), "", 0); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up POST: %w", err)
			}
		}
	}
	return e, nil
}

// nextBody returns connection c's next body; only c's goroutine calls it.
func (e *serveEnv) nextBody(c int) body {
	b := e.bodies[c][e.cursor[c]%len(e.bodies[c])]
	e.cursor[c]++
	return b
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
	<-e.srvDone
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	e.svc.Close()
}

// post sends one body on connection c and returns the decoded response
// lines and the HTTP status. parent, when non-zero, is sent as the client
// span's ID.
func (e *serveEnv) post(c int, b body, query string, parent uint64) ([]serve.QueryResponse, int, error) {
	req, err := http.NewRequest(http.MethodPost, e.url+query, bytes.NewReader(b.data))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(serve.HeaderClient, "bench-c"+strconv.Itoa(c))
	if parent != 0 {
		req.Header.Set(headerSpan, strconv.FormatUint(parent, 10))
	}
	resp, err := e.clients[c].Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, resp.StatusCode, err
	}
	out := make([]serve.QueryResponse, 0, len(b.idx))
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var q serve.QueryResponse
		if err := dec.Decode(&q); err != nil {
			return nil, resp.StatusCode, fmt.Errorf("decoding response line %d: %w", len(out)+1, err)
		}
		out = append(out, q)
	}
	return out, resp.StatusCode, nil
}

// tally is what one load goroutine saw; the goroutines' tallies are merged
// after the section.
type tally struct {
	attempted, failed int
	wrong             []string
	lateMs            []float64
}

// send posts b on connection c, records the operation and checks every
// answer against ref. due is the instant latency counts from.
func (e *serveEnv) send(r *recorder, t *tally, c int, b body, due time.Time, ref []int) {
	id, t0 := e.tr.begin()
	start := time.Now()
	got, status, err := e.post(c, b, "", id)
	end := time.Now()
	e.tr.record(span{ID: id, Req: id, Layer: "client", Name: "http.post", Start: t0,
		Attrs: map[string]float64{"conn": float64(c), "lines": float64(len(b.idx))}})
	r.op(start, end, float64(end.Sub(due))/1e6, len(b.idx))
	t.attempted += len(b.idx)
	if err != nil || status != http.StatusOK || len(got) != len(b.idx) {
		t.failed += len(b.idx)
		return
	}
	for i, q := range got {
		switch {
		case q.Error != "":
			t.failed++
		case q.Class != ref[b.idx[i]]:
			if len(t.wrong) < 4 {
				t.wrong = append(t.wrong, fmt.Sprintf("sample %d: served class %d, reference %d", b.idx[i], q.Class, ref[b.idx[i]]))
			}
		}
	}
}

// run drives the service for d: a closed loop of back-to-back POSTs per
// connection, or the fixed-rate open loop.
func (e *serveEnv) run(d time.Duration) (*pass, error) {
	return e.runAgainst(d, e.fx.refClass)
}

// runAgainst is run with an explicit reference, so a test can show that a
// wrong reference is caught.
func (e *serveEnv) runAgainst(d time.Duration, ref []int) (*pass, error) {
	var tallies [lanes]tally
	e.t0, e.c0 = time.Now(), e.countersNow()
	p, err := measure(d, func(r *recorder, _ *pass) error {
		var wg sync.WaitGroup
		if e.paced {
			due := pacedSchedule(int(pacedRate*d.Seconds()), pacedRate)
			// The schedule starts a little ahead, so request 0 is not late
			// by the time the senders are running.
			t0 := time.Now().Add(5 * time.Millisecond)
			var next atomic.Int64
			for c := range tallies {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					t := &tallies[c]
					for {
						i := int(next.Add(1)) - 1
						if i >= len(due) {
							return
						}
						at := t0.Add(due[i])
						time.Sleep(time.Until(at))
						t.lateMs = append(t.lateMs, math.Max(0, float64(time.Since(at))/1e6))
						// Request i carries the i-th body whichever sender
						// picks it up, so one seed sends one byte stream.
						e.send(r, t, c, e.bodies[0][i%len(e.bodies[0])], at, ref)
					}
				}(c)
			}
		} else {
			deadline := time.Now().Add(d)
			for c := range tallies {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for time.Now().Before(deadline) {
						e.send(r, &tallies[c], c, e.nextBody(c), time.Now(), ref)
					}
				}(c)
			}
		}
		wg.Wait()
		return nil
	})
	e.t1, e.c1 = time.Now(), e.countersNow()
	if err != nil {
		return nil, err
	}
	var late []float64
	for _, t := range tallies {
		p.Attempted += t.attempted
		p.Failed += t.failed
		for _, w := range t.wrong {
			p.wrong(w)
		}
		late = append(late, t.lateMs...)
	}
	if e.paced {
		l := eval.Quantile(late, 0.99)
		p.note("gen_late_p99_ms", l)
		if l > lateLimitMs {
			p.Noisy = fmt.Sprintf("load generator p99 lateness %.2f ms exceeds %.1f ms", l, lateLimitMs)
		}
	}
	e.verify(p)
	return p, nil
}

// verify runs the checks that follow the timed section: full logits over
// HTTP equal a direct shielded query bit for bit, benign traffic raised no
// probe flag, and the service counted no shed or errored line.
func (e *serveEnv) verify(p *pass) {
	b := e.bodies[0][0]
	one := body{data: b.data[:bytes.IndexByte(b.data, '\n')+1], idx: b.idx[:1]}
	got, status, err := e.post(0, one, "?logits=1", 0)
	if err != nil || status != http.StatusOK || len(got) != 1 {
		p.wrong(fmt.Sprintf("logits POST: status %d, %d lines, err %v", status, len(got), err))
	} else {
		x := e.fx.val.X.SliceRange(one.idx[0], one.idx[0]+1)
		want, err := e.refSM.Query(x, nil)
		if err != nil {
			p.wrong("direct shielded query: " + err.Error())
		} else if !sameBits(got[0].Logits, want.Logits.Data()) {
			p.wrong(fmt.Sprintf("sample %d: logits over HTTP differ from a direct ShieldedModel.Query", one.idx[0]))
		}
	}
	flagged, shed, errs := e.routeTotals()
	if flagged != 0 {
		p.wrong(fmt.Sprintf("probe detector flagged %d benign lines", flagged))
	}
	if shed+errs != 0 && p.Failed == 0 {
		p.wrong(fmt.Sprintf("service counted %d shed and %d errored lines the clients never saw", shed, errs))
	}
}

// routeTotals sums the service's own per-route counts.
func (e *serveEnv) routeTotals() (flagged, shed, errs uint64) {
	for _, r := range e.svc.Metrics().Snapshot().Routes {
		flagged += r.FlaggedQueries
		shed += r.Shed
		errs += r.Errors
	}
	return
}

// filter returns the elements keep accepts.
func filter[T any](in []T, keep func(T) bool) []T {
	var out []T
	for _, v := range in {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// layers attributes the traced pass to the serving layers. Stage times come
// from the service's own span records, batch shape and busy time from the
// wrapped replicas, HTTP costs from the client and handler spans.
func (e *serveEnv) layers(p *pass, spans []span) (map[string]float64, error) {
	m := map[string]float64{}
	recs := e.svc.Tracer().Records()
	if err := eval.ValidateSpans(recs); err != nil {
		return nil, fmt.Errorf("service span records: %w", err)
	}
	recs = filter(recs, func(r obs.SpanRecord) bool {
		return r.EnterUnixNS >= e.t0.UnixNano() && r.EnterUnixNS <= e.t1.UnixNano()
	})
	lo, hi := int64(e.t0.Sub(e.tr.epoch)), int64(e.t1.Sub(e.tr.epoch))
	spans = filter(spans, func(s span) bool { return s.Start >= lo && s.Start <= hi })
	if len(recs) == 0 {
		return nil, errors.New("traced service kept no span records")
	}
	stages := make([][]float64, len(obs.StageNames))
	var e2e []float64
	for i := range recs {
		for k, ns := range recs[i].Stages() {
			stages[k] = append(stages[k], float64(ns)/1e6)
		}
		e2e = append(e2e, float64(recs[i].End())/1e6)
	}
	for k, name := range obs.StageNames {
		m["serve."+name+"_ms"] = eval.Quantile(stages[k], 0.5)
	}
	m["serve.span_e2e_ms"] = eval.Quantile(e2e, 0.5)

	reps := named(spans, "replica.logits")
	var busy int64
	var lines float64
	for _, s := range reps {
		busy += s.dur()
		lines += s.Attrs["batch"]
	}
	if len(reps) > 0 {
		m["serve.batches"] = float64(len(reps))
		m["serve.batch_size_mean"] = lines / float64(len(reps))
		m["serve.replica_busy_frac"] = float64(busy) / (p.Seconds * 1e9 * lanes)
	}

	handlers, posts := named(spans, "serve.handler"), named(spans, "http.post")
	self := selfTimes(spans)
	var overhead []float64
	for _, s := range posts {
		overhead = append(overhead, float64(self[s.ID])/1e6)
	}
	if len(handlers) > 0 && len(posts) > 0 {
		m["serve.handler_ms"] = eval.Quantile(durationsMs(handlers), 0.5)
		m["serve.http_overhead_ms"] = eval.Quantile(overhead, 0.5)
	}
	if un := handlerUnattributed(recs, handlers, posts); len(un) > 0 {
		m["serve.handler_unattributed_ms"] = eval.Quantile(un, 0.5)
	}

	var err error
	if m["serve.codec_us_per_line"], err = codecPerLine(e.codecBytes, e.fx.reps(200)); err != nil {
		return nil, err
	}

	flagged, shed, errs := e.routeTotals()
	m["detect.flagged_lines"] = float64(flagged)
	m["serve.shed"] = float64(shed)
	m["serve.errors"] = float64(errs)

	// Kernel time comes from the hook serve.Config.Trace installs; the
	// compute span it is a share of is the replicas' busy time.
	if n := float64(len(reps)); n > 0 {
		kernelFracs(m, e.c0.kernelNS, e.c1.kernelNS, busy)
		m["tee.world_switches_per_query"] = (e.c1.switches - e.c0.switches) / n
		m["tee.bytes_per_query"] = (e.c1.bytes - e.c0.bytes) / n
	}
	for _, sm := range e.sms {
		m["tee.enclave_bytes"] = math.Max(m["tee.enclave_bytes"], float64(sm.Enclave().Used()))
	}
	return m, nil
}

// handlerUnattributed joins each POST's handler span with the service's
// span records of its lines and returns, per POST, the handler time no
// service span covers: request decoding before the first Submit and
// response encoding after the last. The join is by order: a connection's
// POSTs are sequential and its records carry its client name, so the k-th
// group of records belongs to the k-th POST.
func handlerUnattributed(recs []obs.SpanRecord, handlers, posts []span) []float64 {
	byParent := map[uint64]span{}
	for _, h := range handlers {
		byParent[h.Parent] = h
	}
	var out []float64
	for c := 0; c < lanes; c++ {
		var mine []obs.SpanRecord
		for _, r := range recs {
			if r.Client == "bench-c"+strconv.Itoa(c) {
				mine = append(mine, r)
			}
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i].EnterUnixNS < mine[j].EnterUnixNS })
		at := 0
		for _, ps := range posts {
			if int(ps.Attrs["conn"]) != c {
				continue
			}
			n := int(ps.Attrs["lines"])
			h, ok := byParent[ps.ID]
			if !ok || at+n > len(mine) {
				return nil // a dropped record broke the order; report nothing rather than a wrong join
			}
			lo, hi := int64(math.MaxInt64), int64(0)
			for _, r := range mine[at : at+n] {
				lo = min(lo, r.EnterUnixNS)
				hi = max(hi, r.EnterUnixNS+r.End())
			}
			at += n
			out = append(out, float64(h.dur()-(hi-lo))/1e6)
		}
	}
	return out
}

// kernelFracs writes each kernel family's share of the compute span, from
// the hook totals before and after it, and the share no hook covers; the
// four sum to one.
func kernelFracs(m map[string]float64, before, after [3]int64, compute int64) {
	rest := 1.0
	for i, name := range obs.KernelOpNames {
		f := float64(after[i]-before[i]) / float64(compute)
		m["tensor."+name+"_frac"] = f
		rest -= f
	}
	m["tensor.unattributed_frac"] = rest
}
