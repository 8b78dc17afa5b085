package main

import "testing"

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		// Two parallel updates overlap on [30,50]; together they cover [10,70].
		{ID: 2, Parent: 1, Name: "conn", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "conn", Start: 30, End: 70},
		// Nested under the first update.
		{ID: 4, Parent: 2, Name: "client", Start: 15, End: 45},
		// A child that overruns its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "agg", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 60 - 10, 2: 40 - 30, 3: 40, 4: 30, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("checkSpans on a sound set: %v", err)
	}
}

func TestCheckSpansRejectsOrphanAndInverted(t *testing.T) {
	if err := checkSpans([]span{{ID: 1, Parent: 9, Start: 0, End: 1}}); err == nil {
		t.Error("a span whose parent was never recorded passed")
	}
	if err := checkSpans([]span{{ID: 1, Start: 5, End: 1}}); err == nil {
		t.Error("a span ending before it starts passed")
	}
}
