package eval

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pelta/internal/attack"
	"pelta/internal/dataset"
	"pelta/internal/models"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

// DetectTraceConfig shapes a labeled detection trace: per-family probe
// streams recorded from real attack runs, interleaved with benign client
// streams drawn from the dataset.
type DetectTraceConfig struct {
	// Families names the attack families to record one probe stream each
	// for: "fgsm", "pgd", "apgd", "saga", "square".
	Families []string
	// ProbeQueries caps each probe stream's length (0 keeps every
	// recorded oracle query).
	ProbeQueries int
	// BenignClients × BenignQueries benign streams ride alongside, drawn
	// round-robin from the dataset.
	BenignClients int
	BenignQueries int
	// Eps / Step / Steps parameterize the recorded attacks (zero Step
	// defaults to Eps/8).
	Eps   float32
	Step  float32
	Steps int
	Seed  int64
}

// detectAttack instantiates one probe family against m's local copy.
func (c DetectTraceConfig) detectAttack(fi int, family string) (attack.Attack, error) {
	step := c.Step
	if step <= 0 {
		step = c.Eps / 8
	}
	switch strings.ToLower(family) {
	case "fgsm":
		return &attack.FGSM{Eps: c.Eps}, nil
	case "pgd":
		return &attack.PGD{Eps: c.Eps, Step: step, Steps: c.Steps}, nil
	case "apgd":
		return &attack.APGD{Eps: c.Eps, Steps: c.Steps, Rho: 0.75, Restarts: 1, Seed: c.Seed + int64(fi)}, nil
	case "saga":
		return &attack.SelfSAGA{SAGA: attack.SAGA{Eps: c.Eps, Step: step, Steps: c.Steps, AlphaK: 0.5}}, nil
	case "square":
		q := c.ProbeQueries
		if q <= 0 {
			q = c.Steps * 3
		}
		return &attack.Square{Eps: c.Eps, Queries: q, Seed: c.Seed + int64(fi)}, nil
	}
	return nil, fmt.Errorf("eval: unknown detect family %q (want fgsm, pgd, apgd, saga or square)", family)
}

// DetectStream is one client's labeled query sequence, the ground truth a
// detection replay is scored against: a Probe stream is one attacker (the
// ordered iterates of one attack run), a benign one an honest caller.
// Client must be unique per stream; Family names the table row (the
// attack, or "benign"); Queries are in submission order, which the
// detector's m-of-w window slides over.
type DetectStream struct {
	Client, Family string
	Probe          bool
	Queries        []*tensor.Tensor
}

// BuildDetectStreams assembles the labeled query streams of one detection
// run. Each attack family runs once against a recording oracle over the
// attacker's local model copy — every oracle query, forward or gradient,
// is one probe the service would have seen — and replays as one probe
// stream. Benign streams take dataset samples round-robin, one client per
// stream. The result is fully determined by (m, d, cfg): replaying it
// against a detector twice must yield identical verdicts.
func BuildDetectStreams(m models.Model, d *dataset.Dataset, cfg DetectTraceConfig) ([]DetectStream, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("eval: detect trace needs a non-empty dataset")
	}
	var streams []DetectStream
	for bi := 0; bi < cfg.BenignClients; bi++ {
		st := DetectStream{Client: fmt.Sprintf("benign-%02d", bi), Family: "benign"}
		for qi := 0; qi < cfg.BenignQueries; qi++ {
			idx := (bi*cfg.BenignQueries + qi) % d.Len()
			st.Queries = append(st.Queries, d.X.Slice(idx).Clone())
		}
		streams = append(streams, st)
	}
	for fi, family := range cfg.Families {
		att, err := cfg.detectAttack(fi, family)
		if err != nil {
			return nil, err
		}
		rec := attack.Record(attack.NewClearOracle(m))
		idx := (cfg.BenignClients*cfg.BenignQueries + fi) % d.Len()
		x0 := d.X.SliceRange(idx, idx+1)
		y0 := []int{d.Y[idx]}
		if _, err := att.Perturb(rec, x0, y0); err != nil {
			return nil, fmt.Errorf("eval: recording %s probe run: %w", family, err)
		}
		queries := rec.Queries()
		if cfg.ProbeQueries > 0 && len(queries) > cfg.ProbeQueries {
			queries = queries[:cfg.ProbeQueries]
		}
		streams = append(streams, DetectStream{
			Client:  fmt.Sprintf("probe-%s", strings.ToLower(family)),
			Family:  strings.ToLower(family),
			Probe:   true,
			Queries: queries,
		})
	}
	return streams, nil
}

// ReplayDetect submits each stream to s with SubmitFrom as its client,
// probe queries on route "adv" and benign ones on "benign", and scores the
// verdicts. Streams run concurrently but each strictly in order: the
// detector's m-of-w window, and the run's determinism, rest on that. A
// query served with Result.Flagged or shed with ErrFlagged counts as
// flagged; any other ErrOverloaded is a plain shed (so under
// DetectDeprioritize an admission-shed flagged query reads unflagged), and
// a query that failed otherwise is neither served nor shed.
func ReplayDetect(s *serve.Service, streams []DetectStream) (*DetectSummary, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("eval: detect replay needs streams")
	}
	seen := make(map[string]bool, len(streams))
	for _, st := range streams {
		if st.Client == "" || seen[st.Client] {
			return nil, fmt.Errorf("eval: detect replay client %q is empty or shared by two streams", st.Client)
		}
		seen[st.Client] = true
	}

	lines := make([]DetectFamilyLine, len(streams))
	var wg sync.WaitGroup
	for si, st := range streams {
		wg.Add(1)
		go func(l *DetectFamilyLine, st DetectStream) {
			defer wg.Done()
			*l = DetectFamilyLine{Family: st.Family, Probe: st.Probe, Streams: 1, Queries: len(st.Queries)}
			route := "benign"
			if st.Probe {
				route = "adv"
			}
			for _, q := range st.Queries {
				res, err := s.SubmitFrom(route, st.Client, q, time.Time{})
				switch {
				case err == nil:
					l.Served++
					if res.Flagged {
						l.Flagged++
					}
				case errors.Is(err, serve.ErrFlagged):
					l.Shed++
					l.Flagged++
				case errors.Is(err, serve.ErrOverloaded):
					l.Shed++
				}
			}
		}(&lines[si], st)
	}
	wg.Wait()
	return summarize(lines), nil
}

// DetectFamilyLine is one row of the detection-quality table.
type DetectFamilyLine struct {
	Family  string
	Probe   bool
	Streams int
	Queries int
	Served  int
	Shed    int
	Flagged int
}

// Rate returns the line's flagged fraction. ok is false (and the rendered
// cell "n/a") with zero queries, so an empty family is distinguishable
// from one the detector missed entirely.
func (l DetectFamilyLine) Rate() (float64, bool) {
	if l.Queries == 0 {
		return 0, false
	}
	return float64(l.Flagged) / float64(l.Queries), true
}

// DetectSummary condenses a detection run into its quality question: what
// fraction of each attack family's probe queries got flagged, at what
// benign false-positive cost.
type DetectSummary struct {
	// Families holds one line per traffic family, benign first, then the
	// attack families in name order.
	Families []DetectFamilyLine
}

// summarize merges per-stream lines, which it reorders, into one line per
// family: benign first, then the attack families in name order.
func summarize(lines []DetectFamilyLine) *DetectSummary {
	sort.Slice(lines, func(a, b int) bool {
		if lines[a].Probe != lines[b].Probe {
			return !lines[a].Probe
		}
		return lines[a].Family < lines[b].Family
	})
	s := &DetectSummary{}
	for _, l := range lines {
		n := len(s.Families)
		if n == 0 || s.Families[n-1].Family != l.Family {
			s.Families = append(s.Families, l)
			continue
		}
		f := &s.Families[n-1]
		f.Streams += l.Streams
		f.Queries += l.Queries
		f.Served += l.Served
		f.Shed += l.Shed
		f.Flagged += l.Flagged
	}
	return s
}

// DetectionRate returns the fraction of probe queries flagged. ok is false
// when the run had no probe queries, so an empty trace is distinguishable
// from a detector that caught nothing.
func (s *DetectSummary) DetectionRate() (rate float64, ok bool) {
	return s.rate(true)
}

// BenignFPR returns the fraction of benign queries flagged — the run's
// false-positive rate. ok is false with no benign queries.
func (s *DetectSummary) BenignFPR() (fpr float64, ok bool) {
	return s.rate(false)
}

func (s *DetectSummary) rate(probe bool) (float64, bool) {
	var l DetectFamilyLine
	for _, f := range s.Families {
		if f.Probe == probe {
			l.Queries += f.Queries
			l.Flagged += f.Flagged
		}
	}
	return l.Rate()
}

// rateCell renders a (value, ok) rate like the accuracy cells: "n/a" when
// the family had no queries.
func rateCell(v float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

// Render prints the per-family detection table in the repo's plain-text
// report idiom, footed by the two headline numbers the acceptance gate
// reads: detection rate over probe queries and benign FPR.
func (s *DetectSummary) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s | %7s | %7s | %6s | %4s | %7s | %6s\n",
		"family", "streams", "queries", "served", "shed", "flagged", "rate")
	for _, l := range s.Families {
		r, ok := l.Rate()
		fmt.Fprintf(&sb, "%-8s | %7d | %7d | %6d | %4d | %7d | %6s\n",
			l.Family, l.Streams, l.Queries, l.Served, l.Shed, l.Flagged, rateCell(r, ok))
	}
	det, detOK := s.DetectionRate()
	fpr, fprOK := s.BenignFPR()
	fmt.Fprintf(&sb, "detection rate (probe queries): %s\n", rateCell(det, detOK))
	fmt.Fprintf(&sb, "benign FPR:                     %s\n", rateCell(fpr, fprOK))
	return sb.String()
}
