package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host is the fingerprint recorded with every report: numbers from two
// hosts, or two toolchains, are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The toolchain stamps the commit when it builds inside a git checkout;
	// the driver's checkout is not one, and then the commit stays unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// metricValue is one reported number. Spread is the interquartile distance
// across the run's windows as a share of their median (for setup_s, the
// range across the repeated set-ups): what -compare weighs a difference
// against.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

type workloadReport struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Noisy     string                 `json:"noisy,omitempty"`
	Setups    []float64              `json:"setups_s,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// Runs is every measured section made for this workload, in order,
	// including a noisy one that was repeated and the traced pass's two.
	Runs []*pass `json:"runs"`
}

// add records runs and folds their correctness into the workload's.
func (w *workloadReport) add(runs ...*pass) {
	for _, p := range runs {
		w.Runs = append(w.Runs, p)
		if len(p.Wrong) > 0 {
			w.Correct = false
		}
	}
}

type report struct {
	Host      host              `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadReport `json:"workloads"`
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// print writes every metric of the workload by name and unit, each run
// made, and any output that was wrong.
func (w *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "== %s: %s\n", w.Name, w.Why)
	for i, p := range w.Runs {
		kind := "untraced"
		if p.Traced {
			kind = "traced"
		}
		fmt.Fprintf(out, "  run %d (%s, %.1f s): %d attempted, %d failed, %d samples, %.6g ops/s, p50 %.6g ms, p%.4g %.6g ms, host drift %.1f%%",
			i+1, kind, p.Seconds, p.Attempted, p.Failed, p.Samples, p.OpsPerS, p.OpP50Ms, 100*p.TailQ, p.OpTailMs, 100*p.CalibDrift)
		for _, k := range sortedKeys(p.Notes) {
			fmt.Fprintf(out, ", %s %.10g", k, p.Notes[k])
		}
		if p.Noisy != "" {
			fmt.Fprintf(out, " [NOISY: %s]", p.Noisy)
		}
		fmt.Fprintln(out)
		for _, msg := range p.Wrong {
			fmt.Fprintf(out, "    WRONG: %s\n", msg)
		}
	}
	for _, def := range endToEnd {
		if v, ok := w.EndToEnd[def.Name]; ok {
			fmt.Fprintf(out, "  %-32s %14.6g %-8s window spread %5.1f%%  bound %3.0f%%\n", def.Name, v.Value, v.Unit, 100*v.Spread, 100*v.Bound)
		}
	}
	for _, def := range perLayer {
		if v, ok := w.PerLayer[def.Name]; ok {
			fmt.Fprintf(out, "  %-32s %14.6g %s\n", def.Name, v.Value, v.Unit)
		}
	}
	verdict := "correct"
	if !w.Correct {
		verdict = "WRONG OUTPUT"
	}
	fmt.Fprintf(out, "  %s, failed %d of %d\n", verdict, w.Failed, w.Attempted)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultLine is the last line of standard output when one workload and one
// pass were selected: the shape the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifestJSON renders BENCHMARK.json from the definitions this program
// measures, so the file and the program cannot drift apart (a test compares
// them).
func manifestJSON() []byte {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // static data of marshalable types
	}
	return append(b, '\n')
}
