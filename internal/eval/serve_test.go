package eval

import (
	"strings"
	"testing"
	"time"

	"pelta/internal/serve"
)

// TestServeLoadSummaryZeroServedRendersNA pins the accuracy bugfix at the
// rendering layer: a stream that was entirely shed must read "n/a", not a
// fake "0.0%".
func TestServeLoadSummaryZeroServedRendersNA(t *testing.T) {
	rep := serve.LoadReport{
		Sent: 10, Shed: 10,
		BenignSent: 6, BenignShed: 6,
		AdvSent: 4, AdvShed: 4,
		OfferedRate: 100, Seconds: 1,
	}
	render := func() string {
		phase := serve.LoadPhase{Rate: 100, Duration: 100 * time.Millisecond, AdvFrac: 0.4}
		return SummarizeServePhases(&serve.PhasedReport{
			Phases: []serve.PhaseReport{{Phase: phase, LoadReport: rep}},
			Total:  rep,
		}).Render()
	}
	out := render()
	if !strings.Contains(out, "accuracy n/a") {
		t.Fatalf("zero-served render lacks n/a:\n%s", out)
	}
	if strings.Contains(out, "0.0%") {
		t.Fatalf("zero-served render shows a fake 0.0%%:\n%s", out)
	}

	// A genuine 0% stays a percentage.
	rep.BenignServed, rep.BenignCorrect, rep.BenignShed = 6, 0, 0
	out = render()
	if !strings.Contains(out, "accuracy 0.0%") {
		t.Fatalf("genuine 0%% lost:\n%s", out)
	}
}

// TestServePhasesSummaryRender checks the per-phase table carries the
// per-route shed split and per-phase tail latency.
func TestServePhasesSummaryRender(t *testing.T) {
	prep := &serve.PhasedReport{
		Phases: []serve.PhaseReport{
			{
				Phase: serve.LoadPhase{Rate: 200, Duration: 2 * time.Second, AdvFrac: 0.1},
				LoadReport: serve.LoadReport{
					Sent: 400, Served: 400, BenignSent: 360, BenignServed: 360, BenignCorrect: 324,
					AdvSent: 40, AdvServed: 40, LatenciesMs: []float64{1, 2, 3}, Seconds: 2,
				},
			},
			{
				Phase: serve.LoadPhase{Rate: 800, Duration: time.Second, AdvFrac: 0.5},
				LoadReport: serve.LoadReport{
					Sent: 800, Served: 500, Shed: 300, BenignSent: 400, BenignServed: 390,
					BenignCorrect: 350, BenignShed: 10, AdvSent: 400, AdvServed: 110,
					AdvShed: 290, LatenciesMs: []float64{5, 9, 40}, Seconds: 1.2,
				},
			},
			{
				// A fully shed phase: its p95 cell must read n/a, not 0.0.
				Phase: serve.LoadPhase{Rate: 900, Duration: time.Second, AdvFrac: 1},
				LoadReport: serve.LoadReport{
					Sent: 900, Shed: 900, AdvSent: 900, AdvShed: 900, Seconds: 1,
				},
			},
		},
	}
	for _, p := range prep.Phases {
		prep.Total.Sent += p.Sent
		prep.Total.Served += p.Served
		prep.Total.Shed += p.Shed
		prep.Total.BenignSent += p.BenignSent
		prep.Total.BenignServed += p.BenignServed
		prep.Total.BenignCorrect += p.BenignCorrect
		prep.Total.BenignShed += p.BenignShed
		prep.Total.AdvSent += p.AdvSent
		prep.Total.AdvServed += p.AdvServed
		prep.Total.AdvShed += p.AdvShed
		prep.Total.LatenciesMs = append(prep.Total.LatenciesMs, p.LatenciesMs...)
	}
	sum := SummarizeServePhases(prep)
	if len(sum.PhaseLatency) != 3 {
		t.Fatalf("phase latency rows %d", len(sum.PhaseLatency))
	}
	if sum.PhaseLatency[1].P95 <= sum.PhaseLatency[0].P95 {
		t.Fatalf("burst-phase p95 %.1f not above calm-phase %.1f",
			sum.PhaseLatency[1].P95, sum.PhaseLatency[0].P95)
	}
	out := sum.Render()
	for _, want := range []string{"phased load: 3 phases", "benign shed", "adv shed", "290", "robust accuracy", "n/a"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0.0\n") {
		t.Fatalf("fully shed phase renders a fake 0.0 p95:\n%s", out)
	}
}
