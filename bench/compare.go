package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict weighs new against old. A metric whose recorded spread exceeds
// its bound cannot tell a regression from noise and is unresolved, not
// unchanged; otherwise it is worse or better when it moved by more than the
// bound in that direction.
func verdict(old, new metricValue) (string, float64) {
	change := (new.Value - old.Value) / old.Value
	if new.Better == "higher" {
		change = -change
	}
	switch {
	case math.Max(old.Spread, new.Spread) > new.Bound:
		return verdictUnresolved, change
	case change > new.Bound:
		return verdictWorse, change
	case change < -new.Bound:
		return verdictBetter, change
	}
	return verdictWithin, change
}

// compareReports prints, for every workload both reports hold and every
// end-to-end metric, both values, their ratio and the verdict. It reports
// whether anything got worse: a metric beyond its bound, a higher share of
// failed operations, or a wrong output.
func compareReports(out io.Writer, old, new *report) bool {
	if old.Host != new.Host {
		fmt.Fprintf(out, "note: hosts differ (%+v vs %+v); timings are not comparable\n", old.Host, new.Host)
	}
	olds := map[string]*workloadReport{}
	for _, w := range old.Workloads {
		olds[w.Name] = w
	}
	regressed := false
	for _, nw := range new.Workloads {
		ow, ok := olds[nw.Name]
		if !ok {
			fmt.Fprintf(out, "%s: not in the old report\n", nw.Name)
			continue
		}
		for _, def := range endToEnd {
			o, okO := ow.EndToEnd[def.Name]
			n, okN := nw.EndToEnd[def.Name]
			if !okO || !okN || o.Value == 0 {
				continue
			}
			v, change := verdict(o, n)
			fmt.Fprintf(out, "%-16s %-14s old %12.6g  new %12.6g %-6s ratio %.4f of %.6g  worse by %+6.1f%% (bound %.0f%%, spread %.1f%%): %s\n",
				nw.Name, def.Name, o.Value, n.Value, n.Unit, n.Value/o.Value, o.Value, 100*change, 100*n.Bound, 100*math.Max(o.Spread, n.Spread), v)
			regressed = regressed || v == verdictWorse
		}
		of, nf := frac(ow.Failed, ow.Attempted), frac(nw.Failed, nw.Attempted)
		fmt.Fprintf(out, "%-16s %-14s old %d/%d  new %d/%d\n", nw.Name, "failed", ow.Failed, ow.Attempted, nw.Failed, nw.Attempted)
		if nf > of {
			fmt.Fprintf(out, "%-16s failed share rose from %.4g to %.4g: worse\n", nw.Name, of, nf)
			regressed = true
		}
		if !nw.Correct {
			fmt.Fprintf(out, "%-16s new report has wrong outputs: worse\n", nw.Name)
			regressed = true
		}
	}
	return regressed
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func compareFiles(out io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	return compareReports(out, old, new), nil
}
