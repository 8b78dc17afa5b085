package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pelta/internal/detect"
	"pelta/internal/obs"
	"pelta/internal/tensor"
)

// ErrOverloaded is returned when admission control sheds a request: the
// bounded queue is full, or the request's deadline passed before a replica
// could serve it. Callers detect it with errors.Is and should back off.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: service closed")

// Config tunes the micro-batching scheduler.
type Config struct {
	// MaxBatch is the largest tensor batch coalesced from queued requests
	// (default 8). A full batch dispatches immediately.
	MaxBatch int
	// MaxDelay bounds how long a partial batch waits for company before it
	// is flushed anyway (default 2ms). A partial batch waits only while
	// more requests are still in admission or every worker is busy: an
	// idle worker otherwise takes it at once. Lower favors latency, higher
	// favors throughput.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue (default 8×MaxBatch). A
	// request arriving at a full queue is shed with ErrOverloaded instead
	// of growing the backlog without bound.
	QueueDepth int
	// Clock overrides wall time (tests); nil selects the real clock.
	Clock Clock
	// Autoscale, when non-nil, enables the replica autoscaler: the service
	// starts Autoscale.Min live workers instead of one per pool replica
	// and a control loop grows/shrinks the live set. Nil keeps the static
	// one-worker-per-replica provisioning.
	Autoscale *AutoscaleConfig
	// Admission, when non-nil with Rate > 0, enables per-route
	// weighted-fair admission (token buckets) ahead of the shared queue.
	// Nil keeps the shared-queue-only admission.
	Admission *AdmissionConfig
	// Detect, when non-nil, enables the stateful probe detector as a
	// third admission signal: queries submitted with a client identity
	// (SubmitFrom) feed per-client similarity caches on the service
	// clock, and flagged clients are handled per Detect.Action. Nil — the
	// default — keeps the detector entirely out of the request path.
	Detect *DetectConfig
	// Trace, when non-nil, enables per-request span tracing on the
	// service clock plus the kernel-boundary hooks in internal/tensor.
	// Nil — the default — keeps tracing entirely off the Submit hot path
	// (no extra clock reads, no allocations).
	Trace *TraceConfig
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.MaxBatch
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// Result is one served request's answer.
type Result struct {
	// Logits is the caller-owned [classes] output row.
	Logits *tensor.Tensor
	// Class is the argmax label.
	Class int
	// BatchSize is how many requests shared the tensor batch.
	BatchSize int
	// Queued is the time spent waiting before the batch started.
	Queued time.Duration
	// Flagged reports that the probe detector considered the submitting
	// client flagged when this request was admitted (always false without
	// Config.Detect or a client identity).
	Flagged bool
}

// request is one queued unit of work.
type request struct {
	x        *tensor.Tensor // [C,H,W]
	route    string
	deadline time.Time // zero = no deadline
	enqueued time.Time
	flagged  bool // probe detector verdict at admission
	done     chan response

	// sp is the request's span timeline, populated only when the service
	// traces (inline by value, so tracing adds no allocation either). The
	// submitter finishes writing sp before the queue send; the worker owns
	// it afterwards. traced marks requests in the systematic sample —
	// anomalies are emitted regardless.
	sp     obs.SpanRecord
	traced bool
}

type response struct {
	res *Result
	err error
}

// Service turns a ReplicaPool into a multi-client inference service: Submit
// enqueues a single sample; a batcher goroutine coalesces queued requests
// into tensor batches under the MaxBatch/MaxDelay policy; one worker per
// replica runs the batches and fans each row back to its caller.
type Service struct {
	pool    *ReplicaPool
	cfg     Config
	metrics *Metrics
	admit   *admitter        // nil = admission control disabled
	det     *detect.Detector // nil = probe detection disabled
	scaler  *autoscaler      // nil = static provisioning

	tracer    *obs.Tracer      // nil = tracing disabled
	kernels   *obs.KernelStats // nil = kernel hooks disarmed
	registry  *obs.Registry
	hookOwner bool // this service installed the tensor kernel hook

	queue     chan *request
	dispatch  chan []*request
	scaleQuit chan struct{}
	wg        sync.WaitGroup

	// arriving counts requests that have entered admission and have
	// neither been taken off the queue by the batcher nor left unserved.
	// The batcher offers a partial batch to an idle worker only when it is
	// zero, so the lines of one body still share a batch.
	arriving atomic.Int64

	mu      sync.RWMutex
	closed  bool
	workers []*workerHandle // indexed by replica; nil = never started
	liveN   int             // workers[:liveN] are live (not stop-signalled)
	events  []ScaleEvent
}

// workerHandle tracks one worker goroutine's lifecycle: stop asks it to
// exit between batches, done closes when it has fully exited (so a replica
// is never handed to a new worker while the old one still runs a batch).
type workerHandle struct {
	stop chan struct{}
	done chan struct{}
}

// NewService starts the scheduler over pool. Close releases it. Without
// Autoscale every pool replica gets a worker immediately (static
// provisioning, the pre-control-plane behavior); with it, Min workers start
// and the autoscale loop owns the rest.
func NewService(pool *ReplicaPool, cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.Autoscale != nil {
		a := cfg.Autoscale.withDefaults(pool.Size())
		cfg.Autoscale = &a
	}
	s := &Service{
		pool:     pool,
		cfg:      cfg,
		metrics:  NewMetricsAt(cfg.Clock),
		dispatch: make(chan []*request),
		workers:  make([]*workerHandle, pool.Size()),
	}
	if cfg.Admission != nil && cfg.Admission.Rate > 0 {
		s.admit = newAdmitter(*cfg.Admission)
	}
	if cfg.Detect != nil {
		s.det = detect.New(cfg.Detect.Config)
	}
	s.initObservability()
	s.queue = make(chan *request, s.cfg.QueueDepth)
	s.wg.Add(1)
	go s.batcher()
	initial := pool.Size()
	if cfg.Autoscale != nil {
		initial = cfg.Autoscale.Min
	}
	s.mu.Lock()
	for s.liveN < initial {
		s.startWorkerLocked()
	}
	s.mu.Unlock()
	s.metrics.SetReplicas(initial)
	if cfg.Autoscale != nil {
		s.metrics.EnableWindow()
		s.scaler = &autoscaler{s: s, cfg: *cfg.Autoscale}
		s.scaleQuit = make(chan struct{})
		s.wg.Add(1)
		go s.autoscaleLoop()
	}
	return s
}

// startWorkerLocked starts the next worker (replica index liveN) under
// s.mu. It reports false when that replica's previous worker has not fully
// exited yet — the caller retries on a later tick rather than ever running
// two workers on one replica.
func (s *Service) startWorkerLocked() bool {
	i := s.liveN
	if h := s.workers[i]; h != nil {
		select {
		case <-h.done:
		default:
			return false // still draining its last batch
		}
	}
	h := &workerHandle{stop: make(chan struct{}), done: make(chan struct{})}
	s.workers[i] = h
	s.liveN++
	s.wg.Add(1)
	go s.worker(s.pool.replicas[i], h)
	return true
}

// maxScaleEvents bounds the retained scale-event history: a long-running
// deployment oscillating once per cooldown must not grow the log without
// bound. The metrics counters keep the lifetime totals; the log keeps the
// recent story.
const maxScaleEvents = 1024

// scaleLocked moves the live worker count to target under s.mu, recording
// the event and the metrics gauge. It reports whether the count changed
// (scale-up can be blocked by a still-draining replica).
func (s *Service) scaleLocked(target int, now time.Time, reason string) bool {
	from := s.liveN
	for s.liveN < target {
		if !s.startWorkerLocked() {
			break
		}
	}
	for s.liveN > target {
		s.liveN--
		close(s.workers[s.liveN].stop)
	}
	if s.liveN == from {
		return false
	}
	if len(s.events) == maxScaleEvents {
		copy(s.events, s.events[1:])
		s.events = s.events[:maxScaleEvents-1]
	}
	s.events = append(s.events, ScaleEvent{At: now, From: from, To: s.liveN, Reason: reason})
	s.metrics.RecordScale(from, s.liveN)
	return true
}

// LiveReplicas returns how many workers are currently live — the
// autoscaler's gauge, equal to the pool size on a static service.
func (s *Service) LiveReplicas() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveN
}

// ScaleEvents returns a copy of the autoscaler's actions in order (the
// most recent maxScaleEvents; lifetime totals live in the metrics).
func (s *Service) ScaleEvents() []ScaleEvent {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]ScaleEvent(nil), s.events...)
}

// Metrics exposes the service's metrics core.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Detector exposes the probe detector, or nil when Config.Detect is unset.
func (s *Service) Detector() *detect.Detector { return s.det }

// Clock returns the clock the scheduler runs on (real unless injected), so
// the HTTP layer computes deadlines and latencies on the same timeline the
// batcher sheds by.
func (s *Service) Clock() Clock { return s.cfg.Clock }

// Pool returns the served replica pool.
func (s *Service) Pool() *ReplicaPool { return s.pool }

// Close drains the scheduler: queued requests still complete, then the
// batcher and workers exit. Submit calls after Close return ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.scaleQuit != nil {
		close(s.scaleQuit)
	}
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	if s.hookOwner {
		tensor.SetKernelHook(nil)
	}
}

// Submit enqueues one sample x (shape [C,H,W], or [1,C,H,W]) and blocks
// until it is served or shed. A zero deadline means "no deadline";
// otherwise a request still queued past its deadline is shed with
// ErrOverloaded instead of being served late. x must not be mutated until
// Submit returns. Submit carries no client identity, so the probe
// detector never sees these requests — SubmitFrom is the detected path.
func (s *Service) Submit(route string, x *tensor.Tensor, deadline time.Time) (*Result, error) {
	return s.SubmitFrom(route, "", x, deadline)
}

// SubmitFrom is Submit with a client identity: when the probe detector is
// configured and client is non-empty, the query is fingerprinted into the
// client's similarity cache before admission, and a flagged client's
// requests are logged, deprioritized or shed per the configured
// DetectAction. An empty client skips detection (exactly Submit).
func (s *Service) SubmitFrom(route, client string, x *tensor.Tensor, deadline time.Time) (*Result, error) {
	s.arriving.Add(1)
	return s.submit(route, client, x, deadline)
}

// submit is SubmitFrom for a request its caller has already counted in
// s.arriving. Every exit before the queue takes the count back exactly
// once; a queued request's count is the batcher's to take back when it
// receives it, so the request is never invisible to the batcher between
// leaving admission and joining a batch.
func (s *Service) submit(route, client string, x *tensor.Tensor, deadline time.Time) (*Result, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.arriving.Add(-1)
		// No metrics on a closed service: a closed-path Offered with no
		// resolving counter would read as an in-flight request forever.
		return nil, ErrClosed
	}
	tr := s.tracer
	sp, sampled := s.begin(route, client)
	want := s.pool.InputShape()
	if x.Rank() == len(want)+1 && x.Dim(0) == 1 {
		x = x.Slice(0)
	}
	if !slices.Equal(x.Shape(), want) {
		s.mu.RUnlock()
		s.arriving.Add(-1)
		s.unserved(route, &sp, obs.OutcomeRejected)
		return nil, fmt.Errorf("serve: sample shape %v, want %v", x.Shape(), want)
	}
	// A NaN or ±Inf pixel would be answered with NaN logits and fingerprint
	// to the zero vector, blinding the detector for that query.
	for _, v := range x.Data() {
		if v-v != 0 {
			s.mu.RUnlock()
			s.arriving.Add(-1)
			s.unserved(route, &sp, obs.OutcomeRejected)
			return nil, errors.New("serve: sample has a non-finite value (NaN or ±Inf)")
		}
	}

	now := s.cfg.Clock.Now()
	if !deadline.IsZero() && now.After(deadline) {
		s.mu.RUnlock()
		s.arriving.Add(-1)
		s.unserved(route, &sp, obs.OutcomeShedDeadlineAdmit)
		return nil, fmt.Errorf("serve: deadline passed at admission: %w", ErrOverloaded)
	}
	admitRoute := route
	var flagged bool
	if s.det != nil && client != "" {
		if tr != nil {
			sp.DetectStart = sp.Offset(s.cfg.Clock.Now())
		}
		dec := s.det.Observe(client, x, now)
		if tr != nil {
			sp.DetectEnd = sp.Offset(s.cfg.Clock.Now())
			sp.Flagged = dec.Flagged
		}
		s.metrics.Probe(route, dec.Hit, dec.Flagged, dec.NewFlag)
		if dec.Flagged {
			flagged = true
			switch s.cfg.Detect.Action {
			case DetectShed:
				s.mu.RUnlock()
				s.arriving.Add(-1)
				s.unserved(route, &sp, obs.OutcomeShedDetect)
				return nil, fmt.Errorf("serve: probe detector shed client %q: %w (%w)", client, ErrFlagged, ErrOverloaded)
			case DetectDeprioritize:
				// Charge the flagged bucket instead of the client's route;
				// without weighted-fair admission this degrades to logging.
				admitRoute = FlaggedRoute
			}
		}
	}
	if s.admit != nil && !s.admit.allow(admitRoute, now) {
		s.mu.RUnlock()
		s.arriving.Add(-1)
		s.unserved(route, &sp, obs.OutcomeShedAdmitLimit)
		return nil, fmt.Errorf("serve: admission limit for route %q (weighted token bucket): %w", admitRoute, ErrOverloaded)
	}
	r := &request{x: x, route: route, deadline: deadline, enqueued: now, flagged: flagged, done: make(chan response, 1)}
	if tr != nil {
		// The enqueue instant closes the admission stage; after the queue
		// send the worker owns r.sp, so it is finalized here.
		sp.Enqueued = sp.Offset(s.cfg.Clock.Now())
		r.sp = sp
		r.traced = sampled
	}
	select {
	case s.queue <- r:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.arriving.Add(-1)
		// The request never made it into the queue: report the local copy
		// with the enqueue instant rolled back.
		sp.Enqueued = obs.NoOffset
		s.unserved(route, &sp, obs.OutcomeShedQueueFull)
		return nil, fmt.Errorf("serve: admission queue full (depth %d): %w", s.cfg.QueueDepth, ErrOverloaded)
	}

	resp := <-r.done
	return resp.res, resp.err
}

// begin opens a request's accounting: the offered bump and, only when
// tracing is armed, its span — the untraced path reads no clock and
// allocates nothing (the span lives on the caller's stack).
func (s *Service) begin(route, client string) (sp obs.SpanRecord, sampled bool) {
	if tr := s.tracer; tr != nil {
		sp = obs.NewSpanRecord(s.cfg.Clock.Now())
		sp.ID, sampled = tr.Begin()
		sp.Route, sp.Client = route, client
	}
	s.metrics.Offered(route)
	return sp, sampled
}

// unserved is the one exit of a request that ends without an answer
// (every obs.Outcome* but served): it counts the outcome into the route's
// metrics and, when tracing, stamps it on the span and emits it — such a
// span is an anomaly, kept at any sample rate. route is explicit because
// an untraced request's sp.Route is empty. Callers release s.mu first.
func (s *Service) unserved(route string, sp *obs.SpanRecord, outcome string) {
	s.metrics.Unserved(route, outcome)
	if s.tracer != nil {
		sp.Outcome = outcome
		s.tracer.Emit(*sp)
	}
}

// batcher coalesces queued requests into batches: it opens a batch on the
// first arrival and greedily drains whatever is already queued. A full
// batch leaves at once. Once the queue is empty, a partial batch goes
// straight to an idle worker unless more requests are still in admission
// (s.arriving); it waits — for company, a worker coming free or MaxDelay,
// whichever comes first — only while requests are on their way or every
// worker is busy. A worker with nothing to do is blocked receiving on the
// unbuffered dispatch channel, so a send succeeds exactly when one is
// idle. Requests never queue behind an idle timer: a full queue produces
// full batches and a lone request meets an idle worker without ever
// consulting the clock, which is what makes the policy deterministic under
// a fake clock.
func (s *Service) batcher() {
	defer s.wg.Done()
	defer close(s.dispatch)
	for {
		r, ok := <-s.queue
		if !ok {
			return
		}
		s.arriving.Add(-1)
		batch := append(make([]*request, 0, s.cfg.MaxBatch), r)
		var timer Timer
		var timerC <-chan time.Time
		qClosed, sent := false, false
	fill:
		for len(batch) < s.cfg.MaxBatch {
			// Drain immediately available requests without arming a timer.
			select {
			case r2, ok := <-s.queue:
				if !ok {
					qClosed = true
					break fill
				}
				s.arriving.Add(-1)
				batch = append(batch, r2)
				continue
			default:
			}
			// With nothing on its way, an idle worker takes the batch now,
			// and one coming free while the batch waits takes it then.
			var idle chan<- []*request
			if s.arriving.Load() == 0 {
				select {
				case s.dispatch <- batch:
					sent = true
					break fill
				default:
				}
				idle = s.dispatch
			}
			if timer == nil {
				timer = s.cfg.Clock.NewTimer(s.cfg.MaxDelay)
				timerC = timer.C()
			}
			select {
			case r2, ok := <-s.queue:
				if !ok {
					qClosed = true
					break fill
				}
				s.arriving.Add(-1)
				batch = append(batch, r2)
			case idle <- batch:
				sent = true
				break fill
			case <-timerC:
				break fill
			}
		}
		if timer != nil {
			timer.Stop()
		}
		if !sent {
			s.dispatch <- batch
		}
		if qClosed {
			return
		}
	}
}

// worker owns one replica: it sheds expired requests, stacks the rest into
// a [B,C,H,W] tensor, runs the replica, and fans rows back. It exits when
// the dispatch channel closes (service shutdown) or its stop channel closes
// (autoscaler scale-down) — in the latter case always between batches,
// never abandoning one mid-flight.
func (s *Service) worker(rep Replica, h *workerHandle) {
	defer s.wg.Done()
	defer close(h.done)
	var bx *tensor.Tensor
	for {
		var batch []*request
		select {
		case <-h.stop:
			return
		default:
		}
		select {
		case <-h.stop:
			return
		case b, ok := <-s.dispatch:
			if !ok {
				return
			}
			batch = b
		}
		now := s.cfg.Clock.Now()
		tr := s.tracer
		live := batch[:0]
		for _, r := range batch {
			if tr != nil {
				r.sp.Pickup = r.sp.Offset(now)
			}
			if !r.deadline.IsZero() && now.After(r.deadline) {
				s.unserved(r.route, &r.sp, obs.OutcomeShedDeadlineBatch)
				r.done <- response{err: fmt.Errorf("serve: deadline exceeded before service: %w", ErrOverloaded)}
				continue
			}
			live = append(live, r)
		}
		if len(live) == 0 {
			continue
		}
		// One MaxBatch-sized buffer per worker; partial batches run on a
		// zero-copy view so oscillating batch sizes never reallocate.
		if bx == nil {
			bx = tensor.New(append([]int{s.cfg.MaxBatch}, s.pool.InputShape()...)...)
		}
		view := bx.SliceRange(0, len(live))
		for i, r := range live {
			view.Slice(i).CopyFrom(r.x)
		}
		// Batch assembly ends and inference starts here; the kernel-total
		// delta around the replica call attributes matmul/conv/attention
		// time to this batch (approximate under concurrent workers).
		var inferStart time.Time
		var kBefore [3]int64
		if tr != nil {
			inferStart = s.cfg.Clock.Now()
			if s.kernels != nil {
				kBefore = s.kernels.SnapshotNS()
			}
		}
		logits, err := safeLogits(rep, view)
		done := s.cfg.Clock.Now()
		var kDelta [3]int64
		if tr != nil && s.kernels != nil {
			kAfter := s.kernels.SnapshotNS()
			for i := range kDelta {
				kDelta[i] = kAfter[i] - kBefore[i]
			}
		}
		stampInfer := func(r *request) {
			r.sp.InferStart = r.sp.Offset(inferStart)
			r.sp.InferEnd = r.sp.Offset(done)
			r.sp.Batch = len(live)
			r.sp.MatMulNS = kDelta[obs.KernelMatMul]
			r.sp.ConvNS = kDelta[obs.KernelConv]
			r.sp.AttnNS = kDelta[obs.KernelAttention]
		}
		if err != nil {
			for _, r := range live {
				if tr != nil {
					stampInfer(r)
				}
				s.unserved(r.route, &r.sp, obs.OutcomeError)
				r.done <- response{err: fmt.Errorf("serve: replica failed: %w", err)}
			}
			continue
		}
		for i, r := range live {
			row := logits.Row(i).Clone()
			s.metrics.Served(r.route, done.Sub(r.enqueued), len(live))
			if tr != nil {
				stampInfer(r)
				r.sp.Outcome = obs.OutcomeServed
				if r.traced || r.sp.Anomaly() {
					tr.Emit(r.sp)
				}
			}
			r.done <- response{res: &Result{
				Logits:    row,
				Class:     tensor.Argmax(row),
				BatchSize: len(live),
				Queued:    now.Sub(r.enqueued),
				Flagged:   r.flagged,
			}}
		}
	}
}

// safeLogits runs one batch on rep and turns a panic under it — the shape
// and bounds checks of tensor, autograd, nn and models all sit below this
// call — into the error the worker already handles: a fault costs its batch
// the answers (every line leaves with the error outcome), not the process
// its life. A kernel panic raised on a pool helper goroutine reaches this
// recover too: tensor's parallel dispatch re-raises it on the calling
// goroutine once every chunk of the kernel has stopped, so no helper still
// writes into the arena when the replica is used again. Its next pass
// starts with Release/FlushAll, which rebuild arena and enclave state.
func safeLogits(rep Replica, x *tensor.Tensor) (logits *tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			logits, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return rep.Logits(x)
}
