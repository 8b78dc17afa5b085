package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Spans of one request or round share Req; Parent is 0 for a root.
type span struct {
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent"`
	Req    uint64             `json:"req"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer means the
// pass is untraced and no wrapper is installed at all.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is nanoseconds since the tracer was made, on the monotonic clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span ID, so a child can name its parent before the
// parent has ended.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// begin reserves an ID and reads the clock for a span that starts now. On a
// nil tracer (an untraced pass) it and record do nothing, so a load loop
// needs no branch of its own.
func (t *tracer) begin() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.newID(), t.now()
}

// record stores s, ending it now unless End is already set.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.End == 0 {
		s.End = t.now()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns the recorded spans ordered by ID.
func (t *tracer) all() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// named returns the spans with the given name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs lists the spans' durations in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// selfTimes maps every span to its self time: its duration minus the part
// of its interval that its children cover. Overlapping children (parallel
// client updates of one round) are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// checkSpans verifies the structure every traced pass must have: each
// parent exists, no span ends before it starts, and no self time is
// negative.
func checkSpans(spans []span) error {
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 && !ids[s.Parent] {
			return fmt.Errorf("span %d (%s) names parent %d, which was never recorded", s.ID, s.Name, s.Parent)
		}
	}
	for id, ns := range selfTimes(spans) {
		if ns < 0 {
			return fmt.Errorf("span %d has negative self time %dns", id, ns)
		}
	}
	return nil
}

// writeNDJSON writes one JSON value per line to path.
func writeNDJSON[T any](path string, rows []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
