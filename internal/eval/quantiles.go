package eval

import (
	"fmt"
	"sort"
)

// Q holds the p50/p95/p99 summary reported wherever the repo condenses a
// latency or throughput distribution: the serving metrics of internal/serve
// and the sweep summaries below.
type Q struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// String renders the triple in the report idiom of the table renderers.
func (q Q) String() string {
	return fmt.Sprintf("p50 %.3g  p95 %.3g  p99 %.3g", q.P50, q.P95, q.P99)
}

// Quantile returns the q-quantile (q in [0,1]) of a non-empty slice by
// linear interpolation between closest ranks on a sorted copy — the exact
// sorted-slice definition the streaming sketches in internal/serve are
// validated against. vals is not modified.
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		panic("eval: Quantile of empty slice")
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted interpolates on an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	// An exact rank returns its element: interpolating there would compute
	// 0·(hi−lo), which is NaN when the spread overflows to +Inf.
	if frac == 0 || lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Quantiles returns the exact p50/p95/p99 of a non-empty slice, sorting a
// copy once for all three ranks. vals is not modified.
func Quantiles(vals []float64) Q {
	if len(vals) == 0 {
		panic("eval: Quantiles of empty slice")
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return Q{
		P50: quantileSorted(sorted, 0.50),
		P95: quantileSorted(sorted, 0.95),
		P99: quantileSorted(sorted, 0.99),
	}
}
