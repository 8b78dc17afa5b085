package main

import (
	"math"
	"sort"
	"time"

	"pelta/internal/eval"
)

// tailQ is the quantile reported as a timing's tail: p95, or where fewer
// than 200 samples exist the highest quantile that still leaves ten samples
// beyond it, and never below the median. p99 is not used: with the 1200 to
// 2000 samples a serving section yields it follows the host's timer jitter
// (run-to-run spread 8–15 % against 1.5 % for p95).
func tailQ(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(0.95, 1-10/float64(n))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the exclusive method), so a spread
// computed here is the number the driver computes over repeated runs.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// statistic a metric's bound is compared with.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// opSample is one completed operation of a measured section: when it began
// and ended (since the section started), the latency it reports and how many
// units of work it carried (lines of a POST, steps of a PGD call, one FL
// round).
type opSample struct {
	start, at time.Duration
	ms        float64
	ops       int
}

// numWindows is how many equal windows a measured section is cut into; the
// spread across them is recorded next to each metric.
const numWindows = 5

// overlap is the share of [a0,a1] that lies inside [b0,b1]; an empty
// interval counts as a point at a1.
func overlap(a0, a1, b0, b1 time.Duration) float64 {
	if a1 <= a0 {
		if a1 > b0 && a1 <= b1 {
			return 1
		}
		return 0
	}
	lo, hi := max(a0, b0), min(a1, b1)
	if hi <= lo {
		return 0
	}
	return float64(hi-lo) / float64(a1-a0)
}

// windowed is what one measured section reduces to: the end-to-end values
// and, for each, the spread across the section's windows.
type windowed struct {
	opsPerS, p50, tail, allocs     float64
	p99                            float64 // 0 below 1000 samples
	sOpsPerS, sP50, sTail, sAllocs float64
	tailQ                          float64
	n                              int
}

// reduce cuts the samples at the window edges (edges[0] is 0, the last edge
// the end of the section) and computes every per-operation metric overall
// and per window. mallocs[i] is the process malloc count at edges[i].
func reduce(samples []opSample, edges []time.Duration, mallocs []uint64) windowed {
	var w windowed
	if len(samples) == 0 || len(edges) < 2 {
		return w
	}
	all := make([]float64, 0, len(samples))
	nw := len(edges) - 1
	perMs := make([][]float64, nw)
	perOps := make([]float64, nw)
	total := 0
	for _, s := range samples {
		all = append(all, s.ms)
		total += s.ops
		k := sort.Search(nw, func(i int) bool { return s.at <= edges[i+1] })
		if k == nw {
			k = nw - 1
		}
		perMs[k] = append(perMs[k], s.ms)
		// Work is credited to windows in proportion to the time the
		// operation spent in each, so a long operation (an FL round) does
		// not make window throughput jump by a whole unit.
		for j := 0; j < nw; j++ {
			perOps[j] += float64(s.ops) * overlap(s.start, s.at, edges[j], edges[j+1])
		}
	}
	w.n = len(all)
	w.tailQ = tailQ(w.n)
	w.p50 = eval.Quantile(all, 0.5)
	w.tail = eval.Quantile(all, w.tailQ)
	if w.n >= 1000 {
		w.p99 = eval.Quantile(all, 0.99)
	}
	w.allocs = float64(mallocs[nw]-mallocs[0]) / float64(total)

	var rate, p50s, tails, allocs []float64
	for k := 0; k < nw; k++ {
		if perOps[k] == 0 || len(perMs[k]) == 0 {
			continue
		}
		rate = append(rate, perOps[k]/(edges[k+1]-edges[k]).Seconds())
		p50s = append(p50s, eval.Quantile(perMs[k], 0.5))
		tails = append(tails, eval.Quantile(perMs[k], tailQ(len(perMs[k]))))
		allocs = append(allocs, float64(mallocs[k+1]-mallocs[k])/perOps[k])
	}
	// Throughput is the median window, so one stalled window does not set it.
	_, w.opsPerS, _ = quartiles(rate)
	w.sOpsPerS, w.sP50, w.sTail, w.sAllocs = spread(rate), spread(p50s), spread(tails), spread(allocs)
	return w
}
