package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"pelta/internal/dataset"
	"pelta/internal/eval"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/obs"
	"pelta/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(1)
	}
}

type options struct {
	// Single-run mode.
	clients int
	rounds  int
	shield  bool
	useTCP  bool
	hw      int
	epochs  int
	probeN  int
	steps   int
	seed    int64

	// Engine knobs.
	workers       int
	quorum        int
	deterministic bool
	defense       string
	save          string

	// Sweep mode.
	sweep        bool
	trainN       int
	valN         int
	classes      int
	sweepC       string
	sweepSkew    string
	sweepShield  string
	sweepAttack  string
	sweepPoison  string
	sweepPoisons string
	sweepDefense string
	out          string
	summary      bool

	// Summarize mode.
	summarize string

	trace string
}

func run() error {
	var o options
	flag.IntVar(&o.clients, "clients", 4, "number of honest clients (plus one compromised)")
	flag.IntVar(&o.rounds, "rounds", 6, "federation rounds (aggregations)")
	flag.BoolVar(&o.shield, "shield", false, "enable Pelta on the compromised device")
	flag.BoolVar(&o.useTCP, "tcp", false, "attach clients over loopback TCP instead of in-process")
	flag.IntVar(&o.hw, "hw", 16, "image side length")
	flag.IntVar(&o.epochs, "epochs", 2, "local epochs per round")
	flag.IntVar(&o.probeN, "probe", 16, "samples the compromised client perturbs per round")
	flag.IntVar(&o.steps, "steps", 10, "iterative steps of the probe attack")
	flag.Int64Var(&o.seed, "seed", 1, "experiment seed")
	flag.IntVar(&o.workers, "workers", 0, "concurrent client updates (0 = one per client)")
	flag.IntVar(&o.quorum, "quorum", 0, "updates that close an async round (0 = all sampled)")
	flag.BoolVar(&o.deterministic, "deterministic", false, "barrier each round for bit-reproducible FedAvg")
	flag.StringVar(&o.defense, "defense", "fedavg", "aggregation rule: fedavg, krum, multikrum, trimmed-mean, median or normclip")
	flag.StringVar(&o.save, "save", "", "single run: save the final global model to this checkpoint, stamped with the defense that trained it")
	flag.BoolVar(&o.sweep, "sweep", false, "run the scenario matrix instead of a single federation")
	flag.IntVar(&o.trainN, "trainn", 0, "sweep: training samples per cell (0 = 30·clients)")
	flag.IntVar(&o.valN, "valn", 64, "sweep: validation samples per cell")
	flag.IntVar(&o.classes, "classes", 4, "sweep: label-space size per cell")
	flag.StringVar(&o.sweepC, "sweep.clients", "2,4,8", "sweep axis: fleet sizes")
	flag.StringVar(&o.sweepSkew, "sweep.skews", "0,0.8", "sweep axis: non-IID label skews in [0,1]")
	flag.StringVar(&o.sweepShield, "sweep.shields", "both", "sweep axis: shield settings (on, off or both)")
	flag.StringVar(&o.sweepAttack, "sweep.attacks", "fgsm,pgd,apgd,saga", "sweep axis: probe attacks (none,fgsm,pgd,apgd,saga)")
	flag.StringVar(&o.sweepPoison, "sweep.poison", "0", "sweep axis: poisoning fractions in [0,1] (shard fraction for label-flip, fleet fraction for the update-space strategies)")
	flag.StringVar(&o.sweepPoisons, "sweep.poisons", "label-flip", "sweep axis: poison strategies (label-flip, sign-flip, model-replacement)")
	flag.StringVar(&o.sweepDefense, "sweep.defenses", "fedavg", "sweep axis: aggregation defenses (fedavg, krum, multikrum, trimmed-mean, median, normclip)")
	flag.StringVar(&o.out, "out", "", "write one JSON row per sweep cell to this file (NDJSON)")
	flag.BoolVar(&o.summary, "summary", true, "print the eval summary after a sweep")
	flag.StringVar(&o.summarize, "summarize", "", "summarize an existing sweep NDJSON file and exit")
	flag.StringVar(&o.trace, "trace", "", "single run: write per-round phase spans (train/transport/aggregate/broadcast) as NDJSON to this file")
	flag.Parse()

	switch {
	case o.summarize != "":
		return summarize(o.summarize)
	case o.sweep:
		return runSweep(o)
	default:
		return runSingle(o)
	}
}

// summarize renders the eval summary of a previously written sweep file,
// or — when the rows are per-round phase spans from -trace — the
// round-phase breakdown line.
func summarize(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if isRoundSpanFile(data) {
		spans, err := obs.ReadRoundSpans(bytes.NewReader(data))
		if err != nil {
			return err
		}
		fmt.Println(eval.SummarizeRoundSpans(spans))
		return nil
	}
	rows, err := eval.ReadSweepRows(bytes.NewReader(data))
	if err != nil {
		return err
	}
	fmt.Print(eval.SummarizeSweep(rows).Render())
	return nil
}

// isRoundSpanFile sniffs whether an NDJSON file holds obs.RoundSpan rows
// (written by -trace) rather than sweep rows: the first row decides.
func isRoundSpanFile(data []byte) bool {
	line := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line = data[:i]
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(line, &probe); err != nil {
		return false
	}
	_, ok := probe["train_ns"]
	return ok
}

// runSweep executes the scenario matrix and streams NDJSON rows.
func runSweep(o options) error {
	shields, err := parseShields(o.sweepShield)
	if err != nil {
		return err
	}
	clients, err := parseInts(o.sweepC)
	if err != nil {
		return fmt.Errorf("-sweep.clients: %w", err)
	}
	skews, err := parseFloats(o.sweepSkew)
	if err != nil {
		return fmt.Errorf("-sweep.skews: %w", err)
	}
	poison, err := parseFloats(o.sweepPoison)
	if err != nil {
		return fmt.Errorf("-sweep.poison: %w", err)
	}
	var attacks []string
	for _, a := range strings.Split(o.sweepAttack, ",") {
		a = strings.TrimSpace(a)
		// Fail fast on a typo instead of aborting mid-sweep after burning
		// compute on the cells before it.
		if a != "none" {
			if _, err := fl.NewProbe(a, 0.1, 0.0125, 1, 1, nil); err != nil {
				return fmt.Errorf("-sweep.attacks: %w", err)
			}
		}
		attacks = append(attacks, a)
	}
	var poisons []string
	for _, p := range strings.Split(o.sweepPoisons, ",") {
		p = strings.TrimSpace(p)
		if err := fl.ValidPoison(p); err != nil {
			return fmt.Errorf("-sweep.poisons: %w", err)
		}
		poisons = append(poisons, p)
	}
	var defenses []string
	for _, d := range strings.Split(o.sweepDefense, ",") {
		d = strings.TrimSpace(d)
		if _, err := fl.NewAggregator(d); err != nil {
			return fmt.Errorf("-sweep.defenses: %w", err)
		}
		defenses = append(defenses, d)
	}
	spec := fl.SweepSpec{
		Clients:       clients,
		Skews:         skews,
		Shields:       shields,
		Attacks:       attacks,
		PoisonFracs:   poison,
		Poisons:       poisons,
		Defenses:      defenses,
		Rounds:        o.rounds,
		HW:            o.hw,
		TrainN:        o.trainN,
		ValN:          o.valN,
		Classes:       o.classes,
		Epochs:        o.epochs,
		ProbeN:        o.probeN,
		Steps:         o.steps,
		Workers:       o.workers,
		Quorum:        o.quorum,
		Deterministic: o.deterministic,
		Seed:          o.seed,
	}

	// Rows go to -out when given, else to stdout; the human-readable parts
	// then move to stderr so `flsim -sweep > sweep.json` stays parseable.
	rowDst, summaryDst := os.Stdout, os.Stdout
	var outFile *os.File
	if o.out != "" {
		if outFile, err = os.Create(o.out); err != nil {
			return err
		}
		rowDst = outFile
	} else {
		summaryDst = os.Stderr
	}
	enc := json.NewEncoder(rowDst)
	var encErr error
	cells := spec.Cells()
	fmt.Fprintf(os.Stderr, "[flsim] sweeping %d cells...\n", len(cells))
	start := time.Now()
	rows, err := fl.RunSweep(spec, func(row fl.SweepRow) {
		if err := enc.Encode(row); err != nil && encErr == nil {
			encErr = err
		}
	})
	if outFile != nil {
		if cerr := outFile.Close(); cerr != nil && encErr == nil {
			encErr = cerr
		}
	}
	if err != nil {
		return err
	}
	if encErr != nil {
		return fmt.Errorf("writing sweep rows: %w", encErr)
	}
	fmt.Fprintf(os.Stderr, "[flsim] %d cells in %v\n", len(rows), time.Since(start).Round(time.Millisecond))
	if o.summary {
		fmt.Fprint(summaryDst, eval.SummarizeSweep(rows).Render())
	}
	return nil
}

// runSingle runs the original Fig. 1 scenario on the async engine.
func runSingle(o options) error {
	cfg := dataset.SynthCIFAR10(o.hw, o.seed)
	cfg.Classes = 6
	cfg.TrainN, cfg.ValN = 200*(o.clients+1), 200
	train, val := dataset.Generate(cfg)
	shards := train.Shards(o.clients + 1)

	newModel := func(s int64) models.Model {
		return models.NewViT(models.SmallViT("ViT-L/16", cfg.Classes, o.hw, o.hw/4), tensor.NewRNG(s))
	}
	tc := models.TrainConfig{Epochs: o.epochs, BatchSize: 32, LR: 2e-3, Seed: o.seed}
	probe, err := fl.NewProbe("pgd", 0.1, 0.0125, o.steps, o.seed, nil)
	if err != nil {
		return err
	}

	compromised := fl.NewCompromisedClient("mallory", newModel(o.seed+100), shards[0], tc, probe, o.probeN, o.shield)
	peers := []fl.Client{compromised}
	for i := 1; i <= o.clients; i++ {
		peers = append(peers, fl.NewHonestClient(fmt.Sprintf("client-%d", i), newModel(o.seed+int64(i)), shards[i], tc))
	}

	agg, err := fl.NewAggregator(o.defense)
	if err != nil {
		return fmt.Errorf("-defense: %w", err)
	}
	conns, cleanup, err := connect(peers, o.useTCP)
	if err != nil {
		return err
	}
	defer cleanup()

	server := &fl.AsyncServer{
		Global: newModel(o.seed),
		Conns:  conns,
		Config: fl.AsyncConfig{
			Rounds:        o.rounds,
			Workers:       o.workers,
			Quorum:        o.quorum,
			Deterministic: o.deterministic,
			Agg:           agg,
		},
		Eval: func(m models.Model) float64 {
			return models.Accuracy(m, val.X, val.Y)
		},
	}
	fmt.Printf("federation: 1 server, %d honest clients, 1 compromised (shield=%v, transport=%s, deterministic=%v, defense=%s)\n",
		o.clients, o.shield, map[bool]string{true: "tcp", false: "local"}[o.useTCP], o.deterministic, agg.Name())
	results, err := server.Run()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("round %d: global accuracy %.1f%% (merged %d, stale %d, dropped %d)\n",
			r.Round, 100*r.Accuracy, r.Merged, r.StaleMerged, r.Dropped)
		for _, n := range r.Notes {
			fmt.Println("  ", n)
		}
	}
	if o.trace != "" {
		spans := fl.RoundSpans(results)
		f, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		if err := obs.WriteRoundSpans(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println(eval.SummarizeRoundSpans(spans))
		fmt.Printf("wrote %d round spans to %s\n", len(spans), o.trace)
	}
	if o.save != "" {
		// Stamp which defense trained the snapshot, so cmd/peltaserve warm
		// starts can report the served model's provenance.
		meta := fl.CheckpointMeta{Aggregator: agg.Name(), Rounds: len(results), Seed: o.seed}
		if err := fl.SaveCheckpoint(o.save, fl.Snapshot(server.Global), meta); err != nil {
			return err
		}
		fmt.Printf("saved %s (defense=%s, rounds=%d, seed=%d)\n", o.save, meta.Aggregator, meta.Rounds, meta.Seed)
	}
	if len(compromised.Outcomes) == 0 {
		// Possible when the engine dropped the compromised client's every
		// update.
		fmt.Println("\nno probe completed: the compromised client never finished a round")
		return nil
	}
	last := compromised.Outcomes[len(compromised.Outcomes)-1]
	fmt.Printf("\nfinal probe: robust accuracy %.1f%% (%d/%d crafted samples failed)\n",
		100*last.RobustAccuracy, last.Samples-last.Fooled, last.Samples)
	if o.shield {
		fmt.Println("Pelta shielded the device: the white-box probe was reduced to upsampling the adjoint.")
	} else {
		fmt.Println("No shield: the compromised client exploited the full white-box.")
	}
	return nil
}

func parseInts(spec string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(spec string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseShields(spec string) ([]bool, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "both", "off,on", "on,off", "false,true", "true,false":
		return []bool{false, true}, nil
	case "on", "true":
		return []bool{true}, nil
	case "off", "false":
		return []bool{false}, nil
	default:
		return nil, fmt.Errorf("-sweep.shields: want on, off or both, got %q", spec)
	}
}

// connect attaches the clients either in-process or via loopback TCP.
func connect(clients []fl.Client, useTCP bool) ([]fl.Conn, func(), error) {
	if !useTCP {
		conns := make([]fl.Conn, len(clients))
		for i, c := range clients {
			conns[i] = fl.Local(c)
		}
		return conns, func() {}, nil
	}
	var conns []fl.Conn
	var listeners []net.Listener
	cleanup := func() {
		for _, c := range conns {
			_ = c.Close()
		}
		for _, l := range listeners {
			_ = l.Close()
		}
	}
	for _, c := range clients {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("listening for %s: %w", c.ID(), err)
		}
		listeners = append(listeners, lis)
		go func(c fl.Client) { _ = fl.ServeClient(lis, c) }(c)
		conn, err := fl.Dial(lis.Addr().String(), c.ID())
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		conns = append(conns, conn)
	}
	return conns, cleanup, nil
}
