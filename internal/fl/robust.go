package fl

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Aggregator is a pluggable server-side aggregation rule — the defense
// surface of a federation with malicious participants. FedAvg trusts every
// update; the robust rules below bound what a minority of poisoned clients
// can do to the global model (Byzantine-robust aggregation: Krum, trimmed
// mean, coordinate median, norm clipping).
//
// Aggregate merges client updates into the next global weights. prev is the
// broadcast snapshot the updates trained from (delta-space rules like norm
// clipping need it), counts are per-update sample counts, staleness[i] ≥ 0
// is how many versions old update i is, and lambda is the staleness-decay
// exponent — so robust selection composes with the async engine's
// (1+s)^-λ discounts instead of replacing them.
type Aggregator interface {
	Name() string
	Aggregate(prev Weights, updates []Weights, counts, staleness []int, lambda float64) (Weights, error)
}

// Canonical aggregator names accepted by NewAggregator (and the cmd/flsim
// -defense / -sweep.defenses axes).
const (
	DefenseFedAvg      = "fedavg"
	DefenseKrum        = "krum"
	DefenseMultiKrum   = "multikrum"
	DefenseTrimmedMean = "trimmed-mean"
	DefenseMedian      = "median"
	DefenseNormClip    = "normclip"
)

// AggregatorNames lists the canonical defense names in sweep-axis order.
func AggregatorNames() []string {
	return []string{DefenseFedAvg, DefenseKrum, DefenseMultiKrum, DefenseTrimmedMean, DefenseMedian, DefenseNormClip}
}

// NewAggregator builds a defense by canonical name with its default knobs.
// The empty string selects plain FedAvg.
func NewAggregator(name string) (Aggregator, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", DefenseFedAvg:
		return FedAvgAgg{}, nil
	case DefenseKrum:
		return &Krum{M: 1}, nil
	case DefenseMultiKrum:
		return &Krum{}, nil
	case DefenseTrimmedMean, "trimmed":
		return &TrimmedMean{Frac: 0.25}, nil
	case DefenseMedian:
		return MedianAgg{}, nil
	case DefenseNormClip:
		return &NormClip{}, nil
	default:
		return nil, fmt.Errorf("fl: unknown aggregator %q (want %s)", name, strings.Join(AggregatorNames(), ", "))
	}
}

// errNonFinite marks an update carrying a NaN or ±Inf coordinate: one such
// value poisons every mean it enters and breaks the ordering the
// sort-based rules rely on.
var errNonFinite = errors.New("non-finite value")

// nonFinite reports whether w carries a NaN or ±Inf coordinate.
func nonFinite(w Weights) bool {
	for _, d := range w.Data {
		for _, v := range d {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return true
			}
		}
	}
	return false
}

// validateUpdates checks the inputs every rule shares: matching lengths and
// shapes, positive counts, non-negative staleness, finite values.
func validateUpdates(updates []Weights, counts, staleness []int) error {
	if len(updates) == 0 {
		return fmt.Errorf("fl: aggregating no updates")
	}
	if len(updates) != len(counts) || len(updates) != len(staleness) {
		return fmt.Errorf("fl: %d updates but %d counts, %d staleness", len(updates), len(counts), len(staleness))
	}
	ref := updates[0]
	for u, upd := range updates {
		if len(upd.Data) != len(ref.Data) {
			return fmt.Errorf("fl: update %d has %d tensors, expected %d", u, len(upd.Data), len(ref.Data))
		}
		for i := range upd.Data {
			if len(upd.Data[i]) != len(ref.Data[i]) {
				return fmt.Errorf("fl: update %d tensor %q size mismatch", u, ref.Names[i])
			}
		}
		if nonFinite(upd) {
			return fmt.Errorf("fl: update %d: %w", u, errNonFinite)
		}
	}
	for i, c := range counts {
		if c <= 0 {
			return fmt.Errorf("fl: non-positive sample count %d", c)
		}
		if staleness[i] < 0 {
			return fmt.Errorf("fl: negative staleness %d", staleness[i])
		}
	}
	return nil
}

// discounted returns the per-update aggregation weights: sample counts
// discounted by (1+staleness)^-lambda — the StalenessFedAvg rule factored
// out so every robust aggregator composes with the async engine's discounts.
func discounted(counts, staleness []int, lambda float64) []float64 {
	ws := make([]float64, len(counts))
	for i, c := range counts {
		ws[i] = float64(c) * math.Pow(1+float64(staleness[i]), -lambda)
	}
	return ws
}

// emptyLike allocates a zeroed Weights with ref's names and shapes.
func emptyLike(ref Weights) Weights {
	out := Weights{
		Names:  append([]string(nil), ref.Names...),
		Shapes: make([][]int, len(ref.Shapes)),
		Data:   make([][]float32, len(ref.Data)),
	}
	for i := range ref.Data {
		out.Shapes[i] = append([]int(nil), ref.Shapes[i]...)
		out.Data[i] = make([]float32, len(ref.Data[i]))
	}
	return out
}

// weightedMean folds updates into their ws-weighted mean. ws must be
// positive and parallel to updates.
func weightedMean(updates []Weights, ws []float64) Weights {
	total := 0.0
	for _, w := range ws {
		total += w
	}
	out := emptyLike(updates[0])
	for u, upd := range updates {
		frac := float32(ws[u] / total)
		for i := range upd.Data {
			dst := out.Data[i]
			for j, v := range upd.Data[i] {
				dst[j] += frac * v
			}
		}
	}
	return out
}

// FedAvgAgg is the FedAvg baseline behind the Aggregator interface and the
// engine's default rule: FedAvg when every update is fresh, StalenessFedAvg
// as soon as one is a straggler.
type FedAvgAgg struct{}

// Name implements Aggregator.
func (FedAvgAgg) Name() string { return DefenseFedAvg }

// Aggregate implements Aggregator.
func (FedAvgAgg) Aggregate(_ Weights, updates []Weights, counts, staleness []int, lambda float64) (Weights, error) {
	for _, s := range staleness {
		if s > 0 {
			return StalenessFedAvg(updates, counts, staleness, lambda)
		}
	}
	return FedAvg(updates, counts)
}

// Krum implements Krum and Multi-Krum (Blanchard et al., NeurIPS 2017):
// each update is scored by the summed squared distance to its n-f-2 nearest
// neighbors, so an update that had to move far from the honest cluster to
// do damage scores itself out. The M lowest-scoring updates are kept and
// merged with their staleness-discounted FedAvg weights.
type Krum struct {
	// F is the number of Byzantine clients tolerated (0 = max(1, n/4)).
	F int
	// M is how many lowest-scoring updates are merged: 1 = classic Krum,
	// 0 = Multi-Krum's n-F.
	M int
}

// Name implements Aggregator.
func (k *Krum) Name() string {
	if k.M == 1 {
		return DefenseKrum
	}
	return DefenseMultiKrum
}

// Aggregate implements Aggregator.
func (k *Krum) Aggregate(_ Weights, updates []Weights, counts, staleness []int, lambda float64) (Weights, error) {
	if err := validateUpdates(updates, counts, staleness); err != nil {
		return Weights{}, err
	}
	n := len(updates)
	if n == 1 {
		return updates[0], nil
	}
	f := k.F
	if f <= 0 {
		f = n / 4
		if f < 1 {
			f = 1
		}
	}
	m := k.M
	if m <= 0 {
		m = n - f
	}
	if m > n {
		m = n
	}
	// Closest n-f-2 neighbors, clamped so every update scores at least one.
	neighbors := n - f - 2
	if neighbors < 1 {
		neighbors = 1
	}
	if neighbors > n-1 {
		neighbors = n - 1
	}

	// Pairwise squared L2 distances in float64.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 0.0
			for t := range updates[i].Data {
				a, b := updates[i].Data[t], updates[j].Data[t]
				for x := range a {
					diff := float64(a[x]) - float64(b[x])
					d += diff * diff
				}
			}
			dist[i][j], dist[j][i] = d, d
		}
	}
	scores := make([]float64, n)
	buf := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for j := 0; j < n; j++ {
			if j != i {
				buf = append(buf, dist[i][j])
			}
		}
		sort.Float64s(buf)
		for _, d := range buf[:neighbors] {
			scores[i] += d
		}
	}
	// Select the m lowest scores; ties break on update index, so the merge
	// order (ascending client index out of BufferedAggregator.Drain) keeps
	// seeded runs bit-reproducible.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	sel := append([]int(nil), order[:m]...)
	sort.Ints(sel)

	ws := discounted(counts, staleness, lambda)
	selUpd := make([]Weights, len(sel))
	selWs := make([]float64, len(sel))
	for i, idx := range sel {
		selUpd[i] = updates[idx]
		selWs[i] = ws[idx]
	}
	return weightedMean(selUpd, selWs), nil
}

// TrimmedMean is the coordinate-wise trimmed mean (Yin et al., ICML 2018):
// per coordinate the Frac fraction of lowest and highest values is dropped
// and the survivors are averaged with their staleness-discounted weights —
// extreme coordinates never reach the global model, whoever sent them.
type TrimmedMean struct {
	// Frac is the fraction trimmed from EACH end per coordinate (default
	// 0.25, clamped so at least one value survives).
	Frac float64
}

// Name implements Aggregator.
func (t *TrimmedMean) Name() string { return DefenseTrimmedMean }

// Aggregate implements Aggregator.
func (t *TrimmedMean) Aggregate(_ Weights, updates []Weights, counts, staleness []int, lambda float64) (Weights, error) {
	if err := validateUpdates(updates, counts, staleness); err != nil {
		return Weights{}, err
	}
	n := len(updates)
	frac := t.Frac
	if frac <= 0 {
		frac = 0.25
	}
	k := int(frac * float64(n))
	for n-2*k < 1 {
		k--
	}
	if k < 0 {
		k = 0
	}
	ws := discounted(counts, staleness, lambda)
	out := emptyLike(updates[0])
	type vw struct {
		v float64
		w float64
	}
	col := make([]vw, n)
	for ti := range out.Data {
		dst := out.Data[ti]
		for j := range dst {
			for u := 0; u < n; u++ {
				col[u] = vw{v: float64(updates[u].Data[ti][j]), w: ws[u]}
			}
			sort.Slice(col, func(a, b int) bool { return col[a].v < col[b].v })
			sum, wsum := 0.0, 0.0
			for _, c := range col[k : n-k] {
				sum += c.v * c.w
				wsum += c.w
			}
			dst[j] = float32(sum / wsum)
		}
	}
	return out, nil
}

// MedianAgg is the coordinate-wise median: the most aggressive robust rule
// here, immune to any minority of arbitrarily bad coordinates. The median
// is an order statistic, so sample counts and staleness discounts do not
// apply — a deliberately weight-agnostic defense.
type MedianAgg struct{}

// Name implements Aggregator.
func (MedianAgg) Name() string { return DefenseMedian }

// Aggregate implements Aggregator.
func (MedianAgg) Aggregate(_ Weights, updates []Weights, counts, staleness []int, lambda float64) (Weights, error) {
	if err := validateUpdates(updates, counts, staleness); err != nil {
		return Weights{}, err
	}
	n := len(updates)
	out := emptyLike(updates[0])
	col := make([]float64, n)
	for ti := range out.Data {
		dst := out.Data[ti]
		for j := range dst {
			for u := 0; u < n; u++ {
				col[u] = float64(updates[u].Data[ti][j])
			}
			sort.Float64s(col)
			if n%2 == 1 {
				dst[j] = float32(col[n/2])
			} else {
				dst[j] = float32((col[n/2-1] + col[n/2]) / 2)
			}
		}
	}
	return out, nil
}

// NormClip is norm-clipped FedAvg: each update's delta from the broadcast
// model is L2-clipped to Tau before the staleness-discounted weighted mean,
// so a scaled model-replacement update contributes no more than an honest
// one — boosting buys the attacker direction, never magnitude.
type NormClip struct {
	// Tau is the clipping norm. Tau <= 0 adapts per round to the median
	// update-delta norm, which needs no tuning and tracks honest progress
	// as local training slows down.
	Tau float64
}

// Name implements Aggregator.
func (c *NormClip) Name() string { return DefenseNormClip }

// Aggregate implements Aggregator.
func (c *NormClip) Aggregate(prev Weights, updates []Weights, counts, staleness []int, lambda float64) (Weights, error) {
	if err := validateUpdates(updates, counts, staleness); err != nil {
		return Weights{}, err
	}
	if len(prev.Data) != len(updates[0].Data) {
		return Weights{}, fmt.Errorf("fl: normclip needs the broadcast snapshot (%d tensors, updates have %d)", len(prev.Data), len(updates[0].Data))
	}
	n := len(updates)
	norms := make([]float64, n)
	for u, upd := range updates {
		s := 0.0
		for ti := range upd.Data {
			p := prev.Data[ti]
			for j, v := range upd.Data[ti] {
				d := float64(v) - float64(p[j])
				s += d * d
			}
		}
		norms[u] = math.Sqrt(s)
	}
	tau := c.Tau
	if tau <= 0 {
		sorted := append([]float64(nil), norms...)
		sort.Float64s(sorted)
		if n%2 == 1 {
			tau = sorted[n/2]
		} else {
			tau = (sorted[n/2-1] + sorted[n/2]) / 2
		}
	}
	ws := discounted(counts, staleness, lambda)
	total := 0.0
	for _, w := range ws {
		total += w
	}
	out := emptyLike(updates[0])
	for u, upd := range updates {
		scale := 1.0
		if tau > 0 && norms[u] > tau {
			scale = tau / norms[u]
		}
		frac := ws[u] / total
		for ti := range upd.Data {
			dst, p := out.Data[ti], prev.Data[ti]
			for j, v := range upd.Data[ti] {
				d := float64(v) - float64(p[j])
				dst[j] += float32(frac * scale * d)
			}
		}
	}
	for ti := range out.Data {
		dst, p := out.Data[ti], prev.Data[ti]
		for j := range dst {
			dst[j] += p[j]
		}
	}
	return out, nil
}
