package serve

import (
	"errors"
	"testing"
	"time"

	"pelta/internal/tensor"
)

// TestParseWeights pins the -route-weights flag syntax.
func TestParseWeights(t *testing.T) {
	w, err := ParseWeights("benign=8,adv=1, query=4")
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 3 || w["benign"] != 8 || w["adv"] != 1 || w["query"] != 4 {
		t.Fatalf("weights %v", w)
	}
	if w, err := ParseWeights(""); err != nil || w != nil {
		t.Fatalf("empty spec: %v, %v", w, err)
	}
	for _, bad := range []string{"benign", "=3", "adv=zero", "adv=-1", "adv=0", "adv=NaN", "benign=Inf,adv=1", "adv=-Inf"} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("ParseWeights(%q) accepted", bad)
		}
	}
}

// TestWeightedFairAdmissionShedsFloodRoute is the fairness acceptance test:
// an adversarial flood at 10× the benign rate must shed at its own token
// bucket while benign traffic is admitted untouched. Deterministic under
// the fake clock: the buckets refill lazily from Clock.Now.
func TestWeightedFairAdmissionShedsFloodRoute(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	s := NewService(stubPool(t, rep), Config{
		MaxBatch:   1,
		QueueDepth: 64,
		Clock:      fc,
		// Rate 110 split 10:1 — benign sustains 100 req/s, adv 10 req/s.
		Admission: &AdmissionConfig{Rate: 110, Weights: map[string]float64{"benign": 10, "adv": 1}},
	})
	defer s.Close()

	var benignServed, benignShed, advServed, advShed int
	// 3 fake-clock seconds: adv floods at 100 req/s, benign trickles at
	// 10 req/s. Submits are sequential, so the only queue pressure is the
	// buckets' — queue-full shedding never mixes into the count.
	for i := 1; i <= 300; i++ {
		fc.Advance(10 * time.Millisecond)
		if _, err := s.Submit("adv", sample(1), time.Time{}); err == nil {
			advServed++
		} else if errors.Is(err, ErrOverloaded) {
			advShed++
		} else {
			t.Fatalf("adv submit %d: %v", i, err)
		}
		if i%10 == 0 {
			if _, err := s.Submit("benign", sample(2), time.Time{}); err == nil {
				benignServed++
			} else if errors.Is(err, ErrOverloaded) {
				benignShed++
			} else {
				t.Fatalf("benign submit %d: %v", i, err)
			}
		}
	}

	if benignShed != 0 || benignServed != 30 {
		t.Fatalf("benign served %d shed %d, want 30 served and zero shed — the flood starved the benign bucket",
			benignServed, benignShed)
	}
	// Adv admits its 10-token burst plus ~10 req/s of refill over 3s; the
	// remaining ~260 of the 300-strong flood shed at the adv bucket.
	if advShed < 250 || advServed < 30 || advServed > 50 {
		t.Fatalf("adv served %d shed %d — flood not confined to its bucket", advServed, advShed)
	}
	snap := s.Metrics().Snapshot()
	for _, r := range snap.Routes {
		switch r.Route {
		case "benign":
			if r.Shed != uint64(benignShed) || r.Served != uint64(benignServed) {
				t.Fatalf("benign metrics %+v vs observed served %d shed %d", r, benignServed, benignShed)
			}
		case "adv":
			if r.Shed != uint64(advShed) || r.Served != uint64(advServed) {
				t.Fatalf("adv metrics %+v vs observed served %d shed %d", r, advServed, advShed)
			}
		}
	}
}

// TestAdmissionBurstCapacity pins the Burst knob: an idle route absorbs a
// burst of up to cap tokens at once, then sheds.
func TestAdmissionBurstCapacity(t *testing.T) {
	a := newAdmitter(AdmissionConfig{Rate: 5, Burst: 2 * time.Second})
	now := time.Unix(2000, 0)
	admitted := 0
	for i := 0; i < 20; i++ {
		if a.allow("q", now) {
			admitted++
		}
	}
	if admitted != 10 { // 5 req/s × 2s burst
		t.Fatalf("burst admitted %d, want 10", admitted)
	}
	// One second of refill buys 5 more.
	now = now.Add(time.Second)
	admitted = 0
	for i := 0; i < 20; i++ {
		if a.allow("q", now) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("refill admitted %d, want 5", admitted)
	}
}

// TestSubmitRejectedCounted pins the malformed-traffic bugfix: shape and
// rank rejections must reach /metrics instead of vanishing into the error
// return.
func TestSubmitRejectedCounted(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{})
	defer s.Close()
	if _, err := s.Submit("garbage", tensor.New(2, 2), time.Time{}); err == nil {
		t.Fatal("wrong-rank sample accepted")
	}
	if _, err := s.Submit("garbage", tensor.New(1, 3, 3), time.Time{}); err == nil {
		t.Fatal("wrong-shape sample accepted")
	}
	snap := s.Metrics().Snapshot()
	if len(snap.Routes) != 1 {
		t.Fatalf("routes %+v, want only garbage", snap.Routes)
	}
	r := snap.Routes[0]
	if r.Route != "garbage" || r.Rejected != 2 || r.Requests != 2 || r.Shed != 0 || r.Served != 0 {
		t.Fatalf("route snapshot %+v, want rejected=2 requests=2", r)
	}
}
