package eval

import (
	"fmt"
	"strings"
	"time"

	"pelta/internal/serve"
)

// pct renders a (value, ok) accuracy as a percentage, or "n/a" when
// nothing was served — a fully shed stream must not read as 0% accuracy.
func pct(v float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

// accuracyFooter writes the benign/adversarial per-stream lines.
func accuracyFooter(sb *strings.Builder, rep *serve.LoadReport) {
	if rep.BenignSent > 0 {
		fmt.Fprintf(sb, "benign traffic:      %4d served, %4d shed, accuracy %s\n",
			rep.BenignServed, rep.BenignShed, pct(rep.BenignAccuracy()))
	}
	if rep.AdvSent > 0 {
		fmt.Fprintf(sb, "adversarial probes:  %4d served, %4d shed, robust accuracy %s\n",
			rep.AdvServed, rep.AdvShed, pct(rep.AdvRobustAccuracy()))
	}
}

// ms renders a latency cell, or "n/a" when the phase served nothing — a
// fully shed phase must not read as 0.0 ms.
func ms(v float64, served int) string {
	if served == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", v)
}

// ServePhasesSummary condenses a load-generator run into the serving
// questions the ROADMAP asks — what rate did the shielded service sustain,
// how much was shed past the admission limit, did the shield keep blunting
// the adversarial share of the traffic — as a per-phase, per-route
// shed/latency table that also answers the control-plane ones: did the
// burst phase shed, who paid for it (benign vs adv), and what did the tail
// latency do while the autoscaler reacted.
type ServePhasesSummary struct {
	Report *serve.PhasedReport
	// PhaseLatency is the exact latency quantile triple per phase; Total
	// covers the whole run.
	PhaseLatency []Q
	Total        Q
}

// SummarizeServePhases computes the exact per-phase latency quantiles.
func SummarizeServePhases(rep *serve.PhasedReport) *ServePhasesSummary {
	s := &ServePhasesSummary{Report: rep, PhaseLatency: make([]Q, len(rep.Phases))}
	for i, p := range rep.Phases {
		if len(p.LatenciesMs) > 0 {
			s.PhaseLatency[i] = Quantiles(p.LatenciesMs)
		}
	}
	if len(rep.Total.LatenciesMs) > 0 {
		s.Total = Quantiles(rep.Total.LatenciesMs)
	}
	return s
}

// Render prints the per-phase table plus the aggregate latency and accuracy
// lines.
func (s *ServePhasesSummary) Render() string {
	rep := s.Report
	var sb strings.Builder
	fmt.Fprintf(&sb, "phased load: %d phases, %d requests — %d served (%.1f req/s), %d shed (benign %d / adv %d), %d failed in %.2fs\n",
		len(rep.Phases), rep.Total.Sent, rep.Total.Served, rep.Total.Throughput,
		rep.Total.Shed, rep.Total.BenignShed, rep.Total.AdvShed, rep.Total.Failed, rep.Total.Seconds)
	fmt.Fprintf(&sb, "%-5s | %7s | %6s | %4s | %6s | %6s | %11s | %8s | %7s\n",
		"phase", "offered", "dur", "adv%", "sent", "served", "benign shed", "adv shed", "p95 ms")
	for i, p := range rep.Phases {
		fmt.Fprintf(&sb, "%5d | %7.0f | %6s | %3.0f%% | %6d | %6d | %11d | %8d | %7s\n",
			i+1, p.Phase.Rate, p.Phase.Duration.Round(time.Millisecond), 100*p.Phase.AdvFrac,
			p.Sent, p.Served, p.BenignShed, p.AdvShed, ms(s.PhaseLatency[i].P95, p.Served))
	}
	fmt.Fprintf(&sb, "%5s | %7.0f | %6s | %4s | %6d | %6d | %11d | %8d | %7s\n",
		"total", rep.Total.OfferedRate, "", "", rep.Total.Sent, rep.Total.Served,
		rep.Total.BenignShed, rep.Total.AdvShed, ms(s.Total.P95, rep.Total.Served))
	if rep.Total.Served > 0 {
		fmt.Fprintf(&sb, "mean batch %.1f, latency %s ms\n", rep.Total.MeanBatch, s.Total)
	}
	accuracyFooter(&sb, &rep.Total)
	return sb.String()
}
