package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// pass is what one measured section of a workload produced.
type pass struct {
	Traced bool `json:"traced"`
	// Attempted and Failed count operations as the contract does: lines,
	// attack calls, client updates.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Wrong lists outputs that disagree with the reference (first few).
	Wrong []string `json:"wrong,omitempty"`
	// Noisy says why the run should not be trusted (host drift, a late
	// load generator); empty when it can be.
	Noisy   string  `json:"noisy,omitempty"`
	Seconds float64 `json:"seconds"`

	OpsPerS     float64 `json:"ops_per_s"`
	OpP50Ms     float64 `json:"op_p50_ms"`
	OpTailMs    float64 `json:"op_tail_ms"`
	TailQ       float64 `json:"tail_quantile"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
	// Spread is the interquartile distance across the section's five
	// windows, as a share of their median, per metric.
	Spread map[string]float64 `json:"window_spread"`
	// Notes are workload-specific values printed with the run (generator
	// lateness, robust accuracy, final FL accuracy, weight checksum).
	Notes map[string]float64 `json:"notes,omitempty"`

	CalibGflops float64 `json:"calib_gflops"`
	CalibDrift  float64 `json:"calib_drift_frac"`

	GCPauseMs    float64 `json:"gc_pause_ms"`
	GCCycles     float64 `json:"gc_cycles"`
	HeapPeakMB   float64 `json:"heap_peak_mb"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
}

// wrong records a correctness failure, keeping the first few messages.
func (p *pass) wrong(msg string) {
	if len(p.Wrong) < 8 {
		p.Wrong = append(p.Wrong, msg)
	}
}

func (p *pass) note(k string, v float64) {
	if p.Notes == nil {
		p.Notes = map[string]float64{}
	}
	p.Notes[k] = v
}

// recorder collects operation samples from the load goroutines.
type recorder struct {
	t0 time.Time
	mu sync.Mutex
	s  []opSample
}

// op records one operation that ran from start to end and reports latency
// ms (which an open loop counts from the due time, not from start).
func (r *recorder) op(start, end time.Time, ms float64, ops int) {
	r.mu.Lock()
	r.s = append(r.s, opSample{start: start.Sub(r.t0), at: end.Sub(r.t0), ms: ms, ops: ops})
	r.mu.Unlock()
}

// measure runs body as one measured section nominally d long: it samples
// the malloc counter at the window edges, the heap every 50 ms, and reduces
// the operations body recorded to the per-operation metrics. body returns
// when its work is done, which for fixed-count workloads may be before or
// after d.
func measure(d time.Duration, body func(r *recorder, p *pass) error) (*pass, error) {
	p := &pass{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms
	r := &recorder{t0: time.Now()}

	edges := []time.Duration{0}
	mallocs := []uint64{m0.Mallocs}
	heapPeak := uint64(0)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		next := d / numWindows
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			metrics.Read(heap)
			heapPeak = max(heapPeak, heap[0].Value.Uint64())
			if el := time.Since(r.t0); el >= next && len(edges) < numWindows {
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				edges = append(edges, el)
				mallocs = append(mallocs, s.Mallocs)
				next += d / numWindows
			}
		}
	}()
	err := body(r, p)
	close(stop)
	<-done
	elapsed := time.Since(r.t0)
	runtime.ReadMemStats(&ms)
	if err != nil {
		return nil, err
	}
	edges = append(edges, elapsed)
	mallocs = append(mallocs, ms.Mallocs)

	p.Seconds = elapsed.Seconds()
	w := reduce(r.s, edges, mallocs)
	p.OpsPerS, p.OpP50Ms, p.OpTailMs, p.AllocsPerOp = w.opsPerS, w.p50, w.tail, w.allocs
	p.TailQ, p.Samples = w.tailQ, w.n
	if w.p99 > 0 {
		// Printed for the reader, not gated: at these sample counts p99
		// moves with the host's timer jitter (README, "Measured spreads").
		p.note("p99_ms", w.p99)
	}
	p.Spread = map[string]float64{"ops_per_s": w.sOpsPerS, "op_p50_ms": w.sP50, "op_tail_ms": w.sTail, "allocs_per_op": w.sAllocs}
	ops := 0
	for _, s := range r.s {
		ops += s.ops
	}
	p.GCPauseMs = float64(ms.PauseTotalNs-m0.PauseTotalNs) / 1e6
	p.GCCycles = float64(ms.NumGC - m0.NumGC)
	p.HeapPeakMB = float64(heapPeak) / (1 << 20)
	if ops > 0 {
		p.AllocKBPerOp = float64(ms.TotalAlloc-m0.TotalAlloc) / 1024 / float64(ops)
	}
	return p, nil
}

// calibSink keeps the calibration loop's result alive.
var calibSink float64

// calibrate times a register-resident scalar multiply-add loop and returns
// GFLOP/s. It touches no memory and calls nothing from the repo, so a change
// between two calls means the host, not the program, ran at another speed.
func calibrate() float64 {
	const n = 20_000_000
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		a, b, c, d := 1.0, 1.1, 1.2, 1.3
		t0 := time.Now()
		for i := 0; i < n; i++ {
			a = a*0.999999 + 1e-9
			b = b*0.999998 + 1e-9
			c = c*0.999997 + 1e-9
			d = d*0.999996 + 1e-9
		}
		el := time.Since(t0).Seconds()
		calibSink = a + b + c + d
		best = math.Min(best, el)
	}
	return 8 * n / best / 1e9
}
