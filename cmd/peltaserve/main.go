package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pelta/internal/dataset"
	"pelta/internal/detect"
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
	detect       bool
	detectK      int
	detectThresh float64
	detectWindow int
	detectAction string

	// Model / data.
	checkpoint string
	hw         int
	classes    int
	trainN     int
	valN       int
	epochs     int
	seed       int64

	// Observability.
	traceSample float64
	pprof       bool
}

func run() error {
	var o options
	flag.IntVar(&o.replicas, "replicas", 4, "independent shielded replicas (each owns an enclave + arena)")
	flag.IntVar(&o.maxBatch, "max-batch", 8, "largest coalesced tensor batch")
	flag.DurationVar(&o.maxDelay, "max-delay", 2*time.Millisecond, "longest a partial batch waits before flushing, while requests are still in admission or every replica is busy")
	flag.IntVar(&o.queue, "queue", 0, "admission queue depth (0 = 8×max-batch); overflow sheds with ErrOverloaded")
	flag.BoolVar(&o.shield, "shield", true, "serve through Pelta-shielded replicas (false = clear forwards)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8321", "HTTP listen address")
	flag.IntVar(&o.minReplicas, "min-replicas", 1, "autoscaler lower bound on live replicas (with -max-replicas)")
	flag.IntVar(&o.maxReplicas, "max-replicas", 0, "enable the replica autoscaler with this upper bound (0 = static -replicas provisioning)")
	flag.DurationVar(&o.sloP95, "slo-p95", 0, "autoscaler latency SLO: scale up when the windowed p95 exceeds it (0 = queue-depth signal only)")
	flag.Float64Var(&o.admitRate, "admit-rate", 0, "enable weighted-fair admission at this total req/s, split across routes by -route-weights (0 = off)")
	flag.StringVar(&o.routeWeights, "route-weights", "", "admission weights per route, e.g. \"benign=8,adv=1\" (unlisted routes weigh 1)")
	flag.BoolVar(&o.detect, "detect", false, "enable the stateful probe detector (per-client query similarity caches)")
	flag.IntVar(&o.detectK, "detect-k", 0, "detector: flag on the K-th-nearest-neighbor distance (0 = default 2)")
	flag.Float64Var(&o.detectThresh, "detect-thresh", 0, "detector: near-duplicate cosine-distance threshold (0 = default 0.01)")
	flag.IntVar(&o.detectWindow, "detect-window", 0, "detector: per-client fingerprint ring capacity (0 = default 64)")
	flag.StringVar(&o.detectAction, "detect-action", "log", "detector: what admission does with flagged clients (log, deprioritize or shed)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "warm-start weights from an internal/fl checkpoint (see cmd/flsim)")
	flag.IntVar(&o.hw, "hw", 16, "image side length")
	flag.IntVar(&o.classes, "classes", 10, "label-space size")
	flag.IntVar(&o.trainN, "trainn", 800, "training samples when fitting in-process")
	flag.IntVar(&o.valN, "valn", 240, "validation samples scoring the in-process fit")
	flag.IntVar(&o.epochs, "epochs", 5, "in-process training epochs when no -checkpoint is given")
	flag.Int64Var(&o.seed, "seed", 1, "experiment seed")
	flag.Float64Var(&o.traceSample, "trace-sample", 0, "trace this fraction of requests end to end (0 = tracing off; anomalies are always traced once > 0); spans stream on GET /trace")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

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
		// Only the in-process fit synthesizes data: the train split feeds
		// it, the validation split scores it.
		cfg := dataset.SynthCIFAR10(o.hw, o.seed)
		cfg.Classes = o.classes
		cfg.TrainN, cfg.ValN = o.trainN, o.valN
		train, val := dataset.Generate(cfg)
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
		// All HTTP traffic submits on route "query". Weights that omit it
		// would silently cap real traffic at the unlisted-route share.
		if len(weights) > 0 && weights["query"] <= 0 {
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
