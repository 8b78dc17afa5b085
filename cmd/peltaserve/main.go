package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pelta/internal/attack"
	"pelta/internal/core"
	"pelta/internal/dataset"
	"pelta/internal/detect"
	"pelta/internal/eval"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peltaserve:", err)
		os.Exit(1)
	}
}

type options struct {
	// Service knobs.
	replicas int
	maxBatch int
	maxDelay time.Duration
	queue    int
	shield   bool
	addr     string

	// Control plane.
	minReplicas  int
	maxReplicas  int
	sloP95       time.Duration
	admitRate    float64
	routeWeights string

	// Probe detection.
	detect        bool
	detectK       int
	detectThresh  float64
	detectWindow  int
	detectAction  string
	detectFams    string
	detectMinRate float64
	detectMaxFPR  float64

	// Model / data.
	checkpoint string
	hw         int
	classes    int
	trainN     int
	valN       int
	epochs     int
	seed       int64

	// Load generator.
	loadgen  bool
	rate     float64
	n        int
	advFrac  float64
	attackN  string
	eps      float64
	steps    int
	deadline time.Duration
	phases   string

	// Observability.
	traceSample float64
	traceJSON   string
	pprof       bool

	benchJSON string
}

func run() error {
	var o options
	flag.IntVar(&o.replicas, "replicas", 4, "independent shielded replicas (each owns an enclave + arena)")
	flag.IntVar(&o.maxBatch, "max-batch", 8, "largest coalesced tensor batch")
	flag.DurationVar(&o.maxDelay, "max-delay", 2*time.Millisecond, "longest a partial batch waits before flushing")
	flag.IntVar(&o.queue, "queue", 0, "admission queue depth (0 = 8×max-batch); overflow sheds with ErrOverloaded")
	flag.BoolVar(&o.shield, "shield", true, "serve through Pelta-shielded replicas (false = clear forwards)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8321", "HTTP listen address")
	flag.IntVar(&o.minReplicas, "min-replicas", 1, "autoscaler lower bound on live replicas (with -max-replicas)")
	flag.IntVar(&o.maxReplicas, "max-replicas", 0, "enable the replica autoscaler with this upper bound (0 = static -replicas provisioning)")
	flag.DurationVar(&o.sloP95, "slo-p95", 0, "autoscaler latency SLO: scale up when the windowed p95 exceeds it (0 = queue-depth signal only)")
	flag.Float64Var(&o.admitRate, "admit-rate", 0, "enable weighted-fair admission at this total req/s, split across routes by -route-weights (0 = off)")
	flag.StringVar(&o.routeWeights, "route-weights", "", "admission weights per route, e.g. \"benign=8,adv=1\" (unlisted routes weigh 1)")
	flag.BoolVar(&o.detect, "detect", false, "enable the stateful probe detector (per-client query similarity caches); with -loadgen, run the labeled detection trace instead of the mixed-pool load")
	flag.IntVar(&o.detectK, "detect-k", 0, "detector: flag on the K-th-nearest-neighbor distance (0 = default 2)")
	flag.Float64Var(&o.detectThresh, "detect-thresh", 0, "detector: near-duplicate distance threshold (0 = metric default, 0.01 cosine)")
	flag.IntVar(&o.detectWindow, "detect-window", 0, "detector: per-client fingerprint ring capacity (0 = default 64)")
	flag.StringVar(&o.detectAction, "detect-action", "log", "detector: what admission does with flagged clients (log, deprioritize or shed)")
	flag.StringVar(&o.detectFams, "detect-families", "pgd,apgd", "detection loadgen: comma-separated probe families (fgsm, pgd, apgd, saga, square)")
	flag.Float64Var(&o.detectMinRate, "detect-min-rate", 0, "detection loadgen: fail unless the probe detection rate reaches this floor (0 = no gate)")
	flag.Float64Var(&o.detectMaxFPR, "detect-max-fpr", 1, "detection loadgen: fail if the benign false-positive rate exceeds this ceiling")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "warm-start weights from an internal/fl checkpoint (see cmd/flsim)")
	flag.IntVar(&o.hw, "hw", 16, "image side length")
	flag.IntVar(&o.classes, "classes", 10, "label-space size")
	flag.IntVar(&o.trainN, "trainn", 800, "training samples when fitting in-process")
	flag.IntVar(&o.valN, "valn", 240, "validation samples feeding the load generator")
	flag.IntVar(&o.epochs, "epochs", 5, "in-process training epochs when no -checkpoint is given")
	flag.Int64Var(&o.seed, "seed", 1, "experiment seed")
	flag.BoolVar(&o.loadgen, "loadgen", false, "run the built-in load generator instead of listening")
	flag.Float64Var(&o.rate, "rate", 200, "loadgen: open-loop arrival rate (req/s)")
	flag.IntVar(&o.n, "n", 256, "loadgen: total requests")
	flag.Float64Var(&o.advFrac, "adv-frac", 1.0/3, "loadgen: adversarial share of the traffic pool (capped at 0.5 by the probe-source pool)")
	flag.StringVar(&o.attackN, "attack", "pgd", "loadgen: probe attack crafting the adversarial share (fgsm or pgd)")
	flag.Float64Var(&o.eps, "eps", 0.1, "loadgen: attack ε (l∞)")
	flag.IntVar(&o.steps, "steps", 10, "loadgen: iterative attack steps")
	flag.DurationVar(&o.deadline, "deadline", 0, "loadgen: per-request deadline (0 = none)")
	flag.StringVar(&o.phases, "phases", "", "loadgen: phased trace \"rate:dur:advfrac,...\" (e.g. \"200:2s:0.1,800:1s:0.5,200:2s:0.1\"); default is the one phase -rate:(-n/-rate):(adversarial share of the pool)")
	flag.StringVar(&o.benchJSON, "benchjson", "", "write machine-readable serving timings to this JSON file (e.g. BENCH_peltaserve.json)")
	flag.Float64Var(&o.traceSample, "trace-sample", 0, "trace this fraction of requests end to end (0 = tracing off; anomalies are always traced once > 0); spans stream on GET /trace")
	flag.StringVar(&o.traceJSON, "trace-json", "", "loadgen: write the retained span records as NDJSON to this file (requires -trace-sample > 0)")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	// Synthesize only the splits this invocation reads: the train split
	// feeds the in-process fit (skipped on checkpoint warm start), the
	// validation split feeds the fit's accuracy print and the loadgen
	// traffic pool. Plain serving from a checkpoint needs neither.
	needFit := o.checkpoint == "" && o.epochs > 0
	cfg := dataset.SynthCIFAR10(o.hw, o.seed)
	cfg.Classes = o.classes
	cfg.TrainN, cfg.ValN = o.trainN, o.valN
	if !needFit {
		cfg.TrainN = 0
	}
	var train, val *dataset.Dataset
	if needFit || o.loadgen {
		train, val = dataset.Generate(cfg)
	}

	newModel := func(s int64) *models.ViT {
		return models.NewViT(models.SmallViT("ViT-L/16", o.classes, o.hw, o.hw/4), tensor.NewRNG(s))
	}

	// Warm start: a checkpoint written by cmd/flsim / fl.SaveModel, or a
	// quick in-process fit so the served model is better than random.
	base := newModel(o.seed)
	if o.checkpoint != "" {
		w, meta, err := fl.LoadCheckpoint(o.checkpoint)
		if err != nil {
			return err
		}
		if err := fl.Apply(base, w); err != nil {
			return err
		}
		if meta.Aggregator != "" {
			fmt.Fprintf(os.Stderr, "[peltaserve] warm-started from %s (trained by %s over %d federation rounds, seed %d)\n",
				o.checkpoint, meta.Aggregator, meta.Rounds, meta.Seed)
		} else {
			fmt.Fprintf(os.Stderr, "[peltaserve] warm-started from %s (unstamped checkpoint)\n", o.checkpoint)
		}
	} else if o.epochs > 0 {
		tc := models.TrainConfig{Epochs: o.epochs, BatchSize: 32, LR: 2e-3, Seed: o.seed}
		if _, err := models.Train(base, train.X, train.Y, tc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[peltaserve] fitted in-process: clean accuracy %.1f%%\n",
			100*models.Accuracy(base, val.X, val.Y))
	}
	weights := fl.Snapshot(base)

	// Every replica owns an independent model copy with the same weights:
	// ShieldedModel is sequential-only, and forwards race on shared
	// parameter gradients.
	buildModel := func(i int) (models.Model, error) {
		m := newModel(o.seed + 1000 + int64(i))
		if err := fl.Apply(m, weights); err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		return m, nil
	}
	// With -max-replicas the autoscaler owns provisioning: the pool is
	// built at the upper bound and the control loop decides how many of
	// those replicas have live workers at any moment.
	poolSize := o.replicas
	scfg := serve.Config{
		MaxBatch:   o.maxBatch,
		MaxDelay:   o.maxDelay,
		QueueDepth: o.queue,
	}
	if o.traceSample > 0 {
		scfg.Trace = &serve.TraceConfig{Sample: o.traceSample}
	} else if o.traceJSON != "" {
		return fmt.Errorf("-trace-json needs -trace-sample > 0")
	}
	if o.maxReplicas > 0 {
		poolSize = o.maxReplicas
		scfg.Autoscale = &serve.AutoscaleConfig{
			Min:       o.minReplicas,
			Max:       o.maxReplicas,
			TargetP95: o.sloP95,
		}
	}
	if o.admitRate > 0 {
		weights, err := serve.ParseWeights(o.routeWeights)
		if err != nil {
			return err
		}
		// The benign/adv routes exist only in the load generator; all HTTP
		// traffic submits on route "query". Weights that omit it would
		// silently cap real traffic at the unlisted-route share.
		if !o.loadgen && len(weights) > 0 && weights["query"] <= 0 {
			fmt.Fprintf(os.Stderr, "[peltaserve] warning: -route-weights %q has no \"query\" entry — "+
				"HTTP traffic runs on route \"query\" and gets weight 1 of the total %.0f req/s\n",
				o.routeWeights, o.admitRate)
		}
		scfg.Admission = &serve.AdmissionConfig{Rate: o.admitRate, Weights: weights}
	}
	if o.detect {
		action, err := serve.ParseDetectAction(o.detectAction)
		if err != nil {
			return err
		}
		scfg.Detect = &serve.DetectConfig{
			Config: detect.Config{
				K:         o.detectK,
				Threshold: o.detectThresh,
				Window:    o.detectWindow,
			},
			Action: action,
		}
	}
	var pool *serve.ReplicaPool
	var err error
	if o.shield {
		pool, err = serve.NewShieldedPool(poolSize, 0, buildModel)
	} else {
		pool, err = serve.NewClearPool(poolSize, buildModel)
	}
	if err != nil {
		return err
	}
	svc := serve.NewService(pool, scfg)
	defer svc.Close()
	if scfg.Autoscale != nil {
		fmt.Fprintf(os.Stderr, "[peltaserve] autoscaling %d–%d replicas (shield=%v, slo-p95 %v), max-batch %d, max-delay %v\n",
			o.minReplicas, o.maxReplicas, o.shield, o.sloP95, o.maxBatch, o.maxDelay)
	} else {
		fmt.Fprintf(os.Stderr, "[peltaserve] %d replicas (shield=%v), max-batch %d, max-delay %v\n",
			poolSize, o.shield, o.maxBatch, o.maxDelay)
	}
	if scfg.Admission != nil {
		fmt.Fprintf(os.Stderr, "[peltaserve] weighted-fair admission at %.0f req/s (weights %q)\n",
			o.admitRate, o.routeWeights)
	}
	if scfg.Detect != nil {
		dc := svc.Detector().Config()
		fmt.Fprintf(os.Stderr, "[peltaserve] probe detector on: k=%d thresh=%g window=%d action=%s\n",
			dc.K, dc.Threshold, dc.Window, scfg.Detect.Action)
	}
	if scfg.Trace != nil {
		fmt.Fprintf(os.Stderr, "[peltaserve] tracing %.0f%% of requests (anomalies always); spans on GET /trace, Prometheus text on GET /metrics?format=prom\n",
			100*o.traceSample)
	}

	if o.loadgen {
		if o.detect {
			return runDetectLoadgen(o, svc, base, val)
		}
		return runLoadgen(o, svc, base, val)
	}
	fmt.Fprintf(os.Stderr, "[peltaserve] listening on http://%s (POST /query, GET /metrics; probe identity via %s)\n", o.addr, serve.HeaderClient)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The deferred svc.Close above drains the scheduler once this returns.
	return serveUntil(ctx, newServer(o.addr, serve.NewHandlerWith(svc, serve.HandlerOptions{Pprof: o.pprof})))
}

// newServer bounds every phase of a connection, so a stalled client cannot
// pin a goroutine and its (up to 16 MB) line buffer forever. Constants, not
// flags: ReadTimeout covers uploading a full /query body, WriteTimeout the
// slowest answers — that body's reply or a 30 s pprof CPU profile.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveUntil serves until ctx is done (SIGINT/SIGTERM in production), then
// stops accepting and gives requests in flight drainTimeout to finish. A
// listen failure is returned as is; a clean drain returns nil.
func serveUntil(ctx context.Context, srv *http.Server) error {
	const drainTimeout = 15 * time.Second
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "[peltaserve] shutting down: draining requests in flight")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	<-errc // http.ErrServerClosed once Shutdown has begun
	return err
}

// accJSON renders a (value, ok) measurement for the bench record: the
// value, or nil when nothing was served (JSON has no NaN, and a fake 0
// would read as a perfect score or instant latency).
func accJSON(v float64, ok bool) any {
	if !ok {
		return nil
	}
	return v
}

// runLoadgen drives the service in-process with mixed benign + adversarial
// traffic and prints the serving report. With -phases the trace is phased
// (rate × duration × adv-frac steps); otherwise it is the single phase that
// launches -n requests at -rate with the built pool's adversarial share.
func runLoadgen(o options, svc *serve.Service, base models.Model, val *dataset.Dataset) error {
	items, err := buildTraffic(o, base, val)
	if err != nil {
		return err
	}
	nAdv := 0
	for _, it := range items {
		if it.Adversarial {
			nAdv++
		}
	}
	phases, err := serve.ParsePhases(o.phases)
	if err != nil {
		return err
	}
	if len(phases) == 0 {
		if o.rate <= 0 || o.n <= 0 {
			return fmt.Errorf("loadgen needs -rate > 0 and -n > 0, or -phases")
		}
		phases = []serve.LoadPhase{{
			Rate:     o.rate,
			Duration: time.Duration(float64(o.n) / o.rate * float64(time.Second)),
			AdvFrac:  float64(nAdv) / float64(len(items)),
		}}
		o.phases = phases[0].String()
	}
	start := time.Now()
	lcfg := serve.LoadConfig{Deadline: o.deadline, Seed: o.seed}

	// In autoscale mode the pool is sized by -max-replicas, not -replicas;
	// the record must carry the pool that actually served.
	poolSize := o.replicas
	if o.maxReplicas > 0 {
		poolSize = o.maxReplicas
	}
	rec := map[string]any{
		"max_batch":    o.maxBatch,
		"max_delay_ms": float64(o.maxDelay) / float64(time.Millisecond),
		"shield":       o.shield,
		"replicas":     poolSize,
	}
	if o.maxReplicas > 0 {
		rec["min_replicas"] = o.minReplicas
		rec["max_replicas"] = o.maxReplicas
		rec["slo_p95_ms"] = float64(o.sloP95) / float64(time.Millisecond)
	}
	if o.admitRate > 0 {
		rec["admit_rate"] = o.admitRate
		rec["route_weights"] = o.routeWeights
	}

	fmt.Fprintf(os.Stderr, "[peltaserve] loadgen: %d-item pool (%d adversarial via %s), %d phases: %s\n",
		len(items), nAdv, o.attackN, len(phases), o.phases)
	prep, err := serve.RunLoadPhases(svc, items, phases, lcfg)
	if err != nil {
		return err
	}
	sum := eval.SummarizeServePhases(prep)
	fmt.Print(sum.Render())
	total := &prep.Total
	rec["mode"] = "loadgen-phased"
	var phaseRows []map[string]any
	for i, p := range prep.Phases {
		phaseRows = append(phaseRows, map[string]any{
			"rate":        p.Phase.Rate,
			"duration_s":  p.Phase.Duration.Seconds(),
			"adv_frac":    p.Phase.AdvFrac,
			"sent":        p.Sent,
			"served":      p.Served,
			"shed":        p.Shed,
			"benign_shed": p.BenignShed,
			"adv_shed":    p.AdvShed,
			"throughput":  p.Throughput,
			"p95_ms":      accJSON(sum.PhaseLatency[i].P95, p.Served > 0),
		})
	}
	rec["phases"] = phaseRows
	rec["p50_ms"] = accJSON(sum.Total.P50, total.Served > 0)
	rec["p95_ms"] = accJSON(sum.Total.P95, total.Served > 0)
	rec["p99_ms"] = accJSON(sum.Total.P99, total.Served > 0)

	// With tracing on, the retained span records gate and describe the run:
	// any structural violation (negative stage duration, stage sum drifting
	// from the end-to-end span, served request missing a lifecycle offset)
	// fails the run — this is the CI trace-smoke gate — and the per-route ×
	// per-stage latency table prints after the load summary.
	if tr := svc.Tracer(); tr != nil {
		recs := tr.Records()
		if err := eval.ValidateSpans(recs); err != nil {
			return fmt.Errorf("trace validation: %w", err)
		}
		tsum := eval.SummarizeTrace(recs)
		fmt.Print(tsum.Render())
		rec["trace_spans"] = len(recs)
		rec["trace_begun"] = tr.Total()
		if o.traceJSON != "" {
			f, err := os.Create(o.traceJSON)
			if err != nil {
				return err
			}
			if err := tr.WriteNDJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "[peltaserve] wrote %d span records to %s\n", len(recs), o.traceJSON)
		}
	}

	if o.benchJSON != "" {
		snap := svc.Metrics().Snapshot()
		rec["sent"] = total.Sent
		rec["served"] = total.Served
		rec["shed"] = total.Shed
		rec["offered_rate"] = total.OfferedRate
		rec["throughput"] = total.Throughput
		rec["mean_batch"] = total.MeanBatch
		rec["benign_served"] = total.BenignServed
		rec["benign_shed"] = total.BenignShed
		rec["adv_served"] = total.AdvServed
		rec["adv_shed"] = total.AdvShed
		if total.BenignSent > 0 {
			rec["benign_shed_rate"] = float64(total.BenignShed) / float64(total.BenignSent)
			if total.Seconds > 0 {
				rec["benign_throughput"] = float64(total.BenignServed) / total.Seconds
			}
		}
		rec["benign_acc"] = accJSON(total.BenignAccuracy())
		rec["adv_robust"] = accJSON(total.AdvRobustAccuracy())
		rec["scale_ups"] = snap.ScaleUps
		rec["scale_downs"] = snap.ScaleDowns
		rec["live_replicas"] = snap.LiveReplicas
		rec["seconds"] = time.Since(start).Seconds()
		f, err := os.Create(o.benchJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}
	return nil
}

// runDetectLoadgen drives the detection-quality trace: per-family probe
// streams recorded from real attack runs against the attacker's local copy
// of the served weights, interleaved with benign client streams, replayed
// through the detection-enabled service. It prints the per-family table
// and optionally gates on detection-rate floor / FPR ceiling.
func runDetectLoadgen(o options, svc *serve.Service, base models.Model, val *dataset.Dataset) error {
	fams := strings.Split(o.detectFams, ",")
	for i := range fams {
		fams[i] = strings.TrimSpace(fams[i])
	}
	// Benign share: spread -n queries over a small client fleet, at least
	// one query each, alongside one probe stream per family.
	benignClients := 8
	benignQueries := o.n / benignClients
	if benignQueries < 1 {
		benignQueries = 1
	}
	streams, err := eval.BuildDetectStreams(base, val, eval.DetectTraceConfig{
		Families:      fams,
		BenignClients: benignClients,
		BenignQueries: benignQueries,
		Eps:           float32(o.eps),
		Steps:         o.steps,
		Seed:          o.seed,
	})
	if err != nil {
		return err
	}
	var probeQ, benignQ int
	for _, st := range streams {
		if st.Probe {
			probeQ += len(st.Items)
		} else {
			benignQ += len(st.Items)
		}
	}
	fmt.Fprintf(os.Stderr, "[peltaserve] detection loadgen: %d benign queries over %d clients + %d probe queries over %d families\n",
		benignQ, benignClients, probeQ, len(fams))

	start := time.Now()
	rep, err := serve.RunDetectLoad(svc, streams, serve.DetectLoadConfig{Rate: o.rate, Deadline: o.deadline})
	if err != nil {
		return err
	}
	sum := eval.SummarizeDetect(rep)
	fmt.Print(sum.Render())

	det, detOK := rep.DetectionRate()
	fpr, fprOK := rep.BenignFPR()
	if o.benchJSON != "" {
		snap := svc.Metrics().Snapshot()
		dc := svc.Detector().Config()
		var famRows []map[string]any
		for _, l := range sum.Families {
			r, ok := l.Rate()
			famRows = append(famRows, map[string]any{
				"family":  l.Family,
				"probe":   l.Probe,
				"streams": l.Streams,
				"queries": l.Queries,
				"served":  l.Served,
				"shed":    l.Shed,
				"flagged": l.Flagged,
				"rate":    accJSON(r, ok),
			})
		}
		rec := map[string]any{
			"mode":           "loadgen-detect",
			"shield":         o.shield,
			"detect_k":       dc.K,
			"detect_thresh":  dc.Threshold,
			"detect_window":  dc.Window,
			"detect_action":  o.detectAction,
			"families":       famRows,
			"detection_rate": accJSON(det, detOK),
			"benign_fpr":     accJSON(fpr, fprOK),
			"flag_events":    snap.FlagEvents,
			"seconds":        time.Since(start).Seconds(),
		}
		f, err := os.Create(o.benchJSON)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.detectMinRate > 0 && (!detOK || det < o.detectMinRate) {
		return fmt.Errorf("detection rate %.3f below the -detect-min-rate floor %.3f", det, o.detectMinRate)
	}
	if fprOK && fpr > o.detectMaxFPR {
		return fmt.Errorf("benign FPR %.3f above the -detect-max-fpr ceiling %.3f", fpr, o.detectMaxFPR)
	}
	return nil
}

// buildTraffic assembles the mixed pool: benign validation samples plus
// adversarial probes crafted against the attacker's local copy of the
// served weights. The oracle matches the deployment's threat model: with
// -shield the compromised client's device is Pelta-shielded too, so its
// gradients are the restricted upsampled adjoint of §IV-C; without it the
// probes are full white-box.
func buildTraffic(o options, base models.Model, val *dataset.Dataset) ([]serve.TrafficItem, error) {
	var items []serve.TrafficItem
	for i := 0; i < val.Len(); i++ {
		items = append(items, serve.TrafficItem{X: val.X.Slice(i), Label: val.Y[i]})
	}
	if o.advFrac <= 0 {
		return items, nil
	}
	// nAdv benign + nAdv·f/(1-f) adversarial makes the adversarial share
	// of the pool exactly -adv-frac; probe sources are distinct correctly
	// classified samples, which caps the share at 50%.
	f := o.advFrac
	if f > 0.5 {
		f = 0.5
	}
	nAdv := int(math.Round(float64(val.Len()) * f / (1 - f)))
	if nAdv < 1 {
		nAdv = 1
	}
	if nAdv > val.Len() {
		nAdv = val.Len()
	}
	var atk attack.Attack
	switch o.attackN {
	case "fgsm":
		atk = &attack.FGSM{Eps: float32(o.eps)}
	case "pgd":
		atk = &attack.PGD{Eps: float32(o.eps), Step: float32(o.eps) / 8, Steps: o.steps}
	default:
		return nil, fmt.Errorf("-attack: want fgsm or pgd, got %q", o.attackN)
	}
	// Astuteness protocol: probes start from correctly classified samples,
	// so robust accuracy starts at 100% and measures only the attack.
	x, y, err := eval.SelectCorrect([]models.Model{base}, val, nAdv)
	if err != nil {
		return nil, fmt.Errorf("selecting probe sources: %w", err)
	}
	nAdv = x.Dim(0)

	addItems := func(xadv *tensor.Tensor, lo int) {
		for i := 0; i < xadv.Dim(0); i++ {
			items = append(items, serve.TrafficItem{X: xadv.Slice(i), Label: y[lo+i], Adversarial: true})
		}
	}
	if !o.shield {
		xadv, err := atk.Perturb(attack.NewClearOracle(base), x, y)
		if err != nil {
			return nil, fmt.Errorf("crafting adversarial traffic: %w", err)
		}
		addItems(xadv, 0)
		return items, nil
	}
	// Shielded deployment: each attacker only has the restricted
	// upsampled-adjoint oracle, and at this reduced scale one random
	// kernel occasionally aligns with the true backward operator (see
	// eval.KernelDraws), so the pool is split across several independent
	// kernel draws — a fleet of compromised clients, each probing blind.
	sm, err := core.NewShieldedModel(base, 0)
	if err != nil {
		return nil, err
	}
	so, err := attack.NewShieldedOracle(sm, o.seed)
	if err != nil {
		return nil, err
	}
	per := (nAdv + eval.KernelDraws - 1) / eval.KernelDraws
	for k := 0; k*per < nAdv; k++ {
		lo, hi := k*per, (k+1)*per
		if hi > nAdv {
			hi = nAdv
		}
		if k > 0 {
			if err := so.Reseed(o.seed + int64(k)*7919); err != nil {
				return nil, err
			}
		}
		xadv, err := atk.Perturb(so, x.SliceRange(lo, hi), y[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("crafting adversarial traffic (kernel %d): %w", k, err)
		}
		addItems(xadv, lo)
	}
	return items, nil
}
