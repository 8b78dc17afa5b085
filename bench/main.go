// Command bench is the repo's one benchmark: five seeded workloads (two
// serving mixes over a real loopback socket, PGD against a clear and a
// shielded oracle, robust FL rounds over TCP) measured end to end with
// tracing off, and a second, traced pass that attributes each workload's
// time to the repo's layers from outside, by wrapping their public
// interfaces. BENCHMARK.json at the repo root names this command and every
// metric; README.md in this directory explains them.
//
//	go run -C bench .                      # all workloads, both passes
//	go run -C bench . -workload fl_round -trace 0
//	go run -C bench . -json new.json && go run -C bench . -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"pelta/internal/eval"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	jsonOut  string
	traceDir string
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of dataset, initialisation, traffic order and attack")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds each measured section lasts (default 10, with -smoke 1)")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end pass, 1: traced per-layer pass, both")
	flag.StringVar(&o.jsonOut, "json", "", "write the full report to this file")
	flag.StringVar(&o.traceDir, "trace-dir", "", "write the traced pass's spans here as NDJSON (default: keep them in memory only)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizing: identity checks on, quality gates off")
	compare := flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		ok, err := runAll(o, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs the selected workloads and passes, prints every metric, and
// reports whether every output was correct and no operation failed.
func runAll(o options, out io.Writer) (bool, error) {
	sz := fullSizing
	if o.smoke {
		sz = smokeSizing
	}
	if o.seconds <= 0 {
		o.seconds = runSeconds
		if o.smoke {
			o.seconds = 1
		}
	}
	e2e, traced := o.trace != "1", o.trace != "0"
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return false, fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	var selected []workloadDef
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}

	rep := &report{Host: fingerprint(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke}
	ok := true
	r := &runner{o: o, sz: sz, e2e: e2e, traced: traced}
	for _, w := range selected {
		wr, err := r.workload(w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
		wr.print(out)
		ok = ok && wr.Correct && wr.Failed == 0
	}
	if o.jsonOut != "" {
		if err := rep.write(o.jsonOut); err != nil {
			return false, err
		}
	}
	// The contract's result line: one workload, one pass.
	if len(selected) == 1 && e2e != traced {
		wr := rep.Workloads[0]
		vals := wr.EndToEnd
		if traced {
			vals = wr.PerLayer
		}
		line := resultLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]resultValue{}}
		for name, v := range vals {
			line.Metrics[name] = resultValue{Value: v.Value, Unit: v.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return false, err
		}
		fmt.Fprintln(out, string(b))
	}
	return ok, nil
}

// guarded runs env for d between two host calibrations and, when the run
// cannot be trusted (the host changed speed by more than a tenth, or the
// workload flagged itself), runs it once more. It returns every run made;
// the last one is the one reported.
func guarded(e env, d time.Duration, retry bool) ([]*pass, error) {
	var runs []*pass
	for {
		before := calibrate()
		p, err := e.run(d)
		if err != nil {
			return runs, err
		}
		p.CalibGflops = calibrate()
		p.CalibDrift = math.Abs(p.CalibGflops-before) / before
		if p.CalibDrift > 0.10 && p.Noisy == "" {
			p.Noisy = fmt.Sprintf("host calibration drifted %.0f%% across the run", 100*p.CalibDrift)
		}
		runs = append(runs, p)
		if p.Noisy == "" || !retry || len(runs) == 2 {
			return runs, nil
		}
	}
}

// runner carries what the workloads of one process share.
type runner struct {
	o           options
	sz          sizing
	e2e, traced bool
	// direct holds the direct-call layer timings: they do not depend on the
	// workload, so they are taken once and reported with every traced one.
	direct map[string]float64
}

func (r *runner) workload(w workloadDef) (*workloadReport, error) {
	o, sz := r.o, r.sz
	wr := &workloadReport{Name: w.Name, Why: w.Why, Correct: true,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	d := time.Duration(o.seconds * float64(time.Second))
	var fx *fixture

	if r.e2e {
		// Set-up is done several times and the median reported, so one slow
		// start does not set setup_s; the last one is kept and measured. A
		// set-up of a fraction of a second (FL trains nothing) is repeated
		// further, until the repetitions have taken as long as one of the
		// others, or its median would jitter with the scheduler.
		var e env
		var spent time.Duration
		again := func(i int) bool {
			return i < sz.setupReps || (sz.setupReps > 1 && i < 15 && spent < 2*time.Second)
		}
		for i := 0; again(i); i++ {
			if e != nil {
				e.close()
			}
			t0 := time.Now()
			var err error
			if fx, err = newFixture(sz, o.seed, w.trained); err != nil {
				return nil, err
			}
			if e, err = w.build(fx, nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			wr.Setups = append(wr.Setups, time.Since(t0).Seconds())
			spent += time.Since(t0)
		}
		runs, err := guarded(e, d, true)
		e.close()
		if err != nil {
			return nil, err
		}
		wr.add(runs...)
		p := runs[len(runs)-1]
		wr.Noisy = p.Noisy
		wr.Attempted, wr.Failed = p.Attempted, p.Failed
		lo, hi := eval.Quantile(wr.Setups, 0), eval.Quantile(wr.Setups, 1)
		med := eval.Quantile(wr.Setups, 0.5)
		values := map[string][2]float64{
			"setup_s":       {med, (hi - lo) / med},
			"ops_per_s":     {p.OpsPerS, p.Spread["ops_per_s"]},
			"op_p50_ms":     {p.OpP50Ms, p.Spread["op_p50_ms"]},
			"op_tail_ms":    {p.OpTailMs, p.Spread["op_tail_ms"]},
			"allocs_per_op": {p.AllocsPerOp, p.Spread["allocs_per_op"]},
		}
		for _, def := range endToEnd {
			v := values[def.Name]
			wr.EndToEnd[def.Name] = metricValue{Value: v[0], Unit: def.Unit, Better: def.Better, Bound: def.Bound, Spread: v[1]}
		}
	}

	if r.traced {
		if fx == nil {
			var err error
			if fx, err = newFixture(sz, o.seed, w.trained); err != nil {
				return nil, err
			}
		}
		layers, err := r.tracedPass(w, fx, d, wr)
		if err != nil {
			return nil, err
		}
		for _, def := range perLayer {
			wr.PerLayer[def.Name] = metricValue{Value: layers[def.Name], Unit: def.Unit, Better: def.Better}
		}
	}
	return wr, nil
}

// tracedPass measures the workload twice more, both shorter than the
// end-to-end pass and neither feeding it: untraced as the reference, then
// with every wrapper and the service's own tracing on. The difference is
// the tracing overhead; the spans give the per-layer numbers.
func (r *runner) tracedPass(w workloadDef, fx *fixture, d time.Duration, wr *workloadReport) (map[string]float64, error) {
	o := r.o
	ref, err := w.build(fx, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	refRuns, err := guarded(ref, d/4, false)
	ref.close()
	if err != nil {
		return nil, err
	}
	wr.add(refRuns...)

	tr := newTracer()
	e, err := w.build(fx, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer e.close()
	runs, err := guarded(e, d/2, false)
	if err != nil {
		return nil, err
	}
	p := runs[0]
	p.Traced = true
	wr.add(p)
	if !r.e2e {
		wr.Attempted, wr.Failed = p.Attempted, p.Failed
	}

	spans := tr.all()
	if err := checkSpans(spans); err != nil {
		wr.Correct = false
		p.wrong("span structure: " + err.Error())
	}
	layers, err := e.layers(p, spans)
	if err != nil {
		return nil, err
	}
	if r.direct == nil {
		if r.direct, err = directLayers(fx); err != nil {
			return nil, err
		}
	}
	for k, v := range r.direct {
		layers[k] = v
	}
	base := refRuns[0]
	layers["obs.trace_overhead_frac"] = 1 - p.OpsPerS/base.OpsPerS
	layers["obs.trace_p50_delta_ms"] = p.OpP50Ms - base.OpP50Ms
	layers["go.gc_pause_ms"], layers["go.gc_cycles"] = p.GCPauseMs, p.GCCycles
	layers["go.heap_peak_mb"], layers["go.alloc_kb_per_op"] = p.HeapPeakMB, p.AllocKBPerOp
	layers["host.calib_gflops"], layers["host.calib_drift_frac"] = p.CalibGflops, p.CalibDrift

	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeNDJSON(filepath.Join(o.traceDir, w.Name+".spans.ndjson"), spans); err != nil {
			return nil, err
		}
		if se, ok := e.(*serveEnv); ok {
			if err := writeNDJSON(filepath.Join(o.traceDir, w.Name+".serve_records.ndjson"), se.svc.Tracer().Records()); err != nil {
				return nil, err
			}
		}
	}
	return layers, nil
}
