package main

import (
	"bytes"
	"strings"
	"testing"
)

func handBuilt(opsPerS, p50, spreadP50 float64, failed int, correct bool) *report {
	return &report{Workloads: []*workloadReport{{
		Name: "serve_paced", Correct: correct, Attempted: 1000, Failed: failed,
		EndToEnd: map[string]metricValue{
			"ops_per_s": {Value: opsPerS, Unit: "1/s", Better: "higher", Bound: 0.10, Spread: 0.01},
			"op_p50_ms": {Value: p50, Unit: "ms", Better: "lower", Bound: 0.10, Spread: spreadP50},
		},
	}}}
}

func TestCompareVerdicts(t *testing.T) {
	base := handBuilt(200, 4.0, 0.01, 0, true)
	cases := []struct {
		name      string
		new       *report
		want      []string
		regressed bool
	}{
		{"same", handBuilt(201, 4.1, 0.01, 0, true), []string{"ops_per_s", verdictWithin}, false},
		{"slower", handBuilt(200, 4.6, 0.01, 0, true), []string{"op_p50_ms", verdictWorse}, true},
		{"faster", handBuilt(240, 3.0, 0.01, 0, true), []string{verdictBetter}, false},
		{"less throughput", handBuilt(170, 4.0, 0.01, 0, true), []string{verdictWorse}, true},
		{"noisy", handBuilt(200, 4.6, 0.30, 0, true), []string{verdictUnresolved}, false},
		{"more failures", handBuilt(200, 4.0, 0.01, 3, true), []string{"failed share rose"}, true},
		{"wrong output", handBuilt(200, 4.0, 0.01, 0, false), []string{"wrong outputs"}, true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		got := compareReports(&out, base, c.new)
		if got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", c.name, w, out.String())
			}
		}
		// Every ratio comes with its base.
		if !strings.Contains(out.String(), "ratio") || !strings.Contains(out.String(), " of ") {
			t.Errorf("%s: ratio printed without its base\n%s", c.name, out.String())
		}
	}
}
