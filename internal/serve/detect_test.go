package serve

import (
	"errors"
	"testing"
	"time"

	"pelta/internal/detect"
	"pelta/internal/tensor"
)

// dupSample returns one of a family of near-duplicate samples: base plus a
// tiny index-dependent wiggle, well inside the detector's threshold.
func dupSample(i int) *tensor.Tensor {
	x := tensor.New(1, 2, 2)
	d := x.Data()
	for j := range d {
		d[j] = 0.5 + 0.1*float32(j) + 0.0005*float32(i%3)
	}
	return x
}

// freshSample returns a sample whose fingerprint points in its own
// direction (a seeded random pattern per index), far from every other
// index's.
func freshSample(i int) *tensor.Tensor {
	rng := tensor.NewRNG(int64(1000 + i))
	x := tensor.New(1, 2, 2)
	d := x.Data()
	for j := range d {
		d[j] = 0.5 + 0.3*float32(rng.NormFloat64())
	}
	return x
}

// detectTestConfig is a fast-flagging config for the action tests.
func detectTestConfig(action DetectAction) *DetectConfig {
	return &DetectConfig{
		Config: detect.Config{K: 1, MatchM: 2, MatchW: 4},
		Action: action,
	}
}

// checkInvariant asserts requests = served + shed + rejected + errors on
// every route of a snapshot — the accounting contract DetectShed must not
// break.
func checkInvariant(t *testing.T, m *Metrics) {
	t.Helper()
	for _, r := range m.Snapshot().Routes {
		if r.Requests != r.Served+r.Shed+r.Rejected+r.Errors {
			t.Fatalf("route %s: requests %d != served %d + shed %d + rejected %d + errors %d",
				r.Route, r.Requests, r.Served, r.Shed, r.Rejected, r.Errors)
		}
	}
}

// TestDetectLogAction pins the observe-first mode: a near-duplicate stream
// flags the client, flagged queries are still served with Result.Flagged
// set, and the detector counters land in the metrics.
func TestDetectLogAction(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 1, Detect: detectTestConfig(DetectLog)})
	defer s.Close()

	var flagged int
	for i := 0; i < 8; i++ {
		res, err := s.SubmitFrom("adv", "attacker", dupSample(i), time.Time{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Flagged {
			flagged++
		}
	}
	if flagged < 4 {
		t.Fatalf("%d of 8 near-duplicate queries flagged, want >= 4", flagged)
	}
	// A benign client interleaved on the same service stays unflagged.
	for i := 0; i < 8; i++ {
		res, err := s.SubmitFrom("benign", "honest", freshSample(i), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Flagged {
			t.Fatalf("benign client flagged at query %d", i)
		}
	}

	snap := s.Metrics().Snapshot()
	if snap.FlagEvents != 1 {
		t.Fatalf("flag events = %d, want 1", snap.FlagEvents)
	}
	for _, r := range snap.Routes {
		switch r.Route {
		case "adv":
			if r.Probed != 8 || r.FlaggedQueries == 0 || r.ProbeHits == 0 {
				t.Fatalf("adv route detector counters: %+v", r)
			}
		case "benign":
			if r.Probed != 8 || r.FlaggedQueries != 0 {
				t.Fatalf("benign route detector counters: %+v", r)
			}
		}
	}
	checkInvariant(t, s.Metrics())

	st := s.Detector().Stats(s.Clock().Now())
	if st.Clients != 2 || st.FlaggedClients != 1 {
		t.Fatalf("detector stats %+v, want 2 clients with 1 flagged", st)
	}
}

// TestDetectShedAction pins the enforcement mode: once flagged, a client's
// queries come back ErrFlagged (wrapping ErrOverloaded for existing
// back-off logic), counted as detector sheds without breaking the
// accounting invariant.
func TestDetectShedAction(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 1, Detect: detectTestConfig(DetectShed)})
	defer s.Close()

	var shedErr error
	var served, shed int
	for i := 0; i < 8; i++ {
		_, err := s.SubmitFrom("adv", "attacker", dupSample(i), time.Time{})
		if err != nil {
			shed++
			shedErr = err
		} else {
			served++
		}
	}
	if shed == 0 || served == 0 {
		t.Fatalf("served %d / shed %d: want the stream to flow, then be cut", served, shed)
	}
	if !errors.Is(shedErr, ErrFlagged) || !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("shed error %v must wrap both ErrFlagged and ErrOverloaded", shedErr)
	}
	var rs RouteSnapshot
	for _, r := range s.Metrics().Snapshot().Routes {
		if r.Route == "adv" {
			rs = r
		}
	}
	if rs.DetectShed != uint64(shed) || rs.Shed < rs.DetectShed {
		t.Fatalf("detect_shed %d (shed %d), want %d detector sheds counted into shed", rs.DetectShed, rs.Shed, shed)
	}
	checkInvariant(t, s.Metrics())
}

// TestDetectDeprioritizeAction pins the middle action: flagged queries are
// charged to the "flagged" admission bucket. With that bucket rate-starved,
// the flagged client is shed by admission while an honest client on the
// same route keeps being served.
func TestDetectDeprioritizeAction(t *testing.T) {
	cfg := Config{
		MaxBatch: 1,
		Detect:   detectTestConfig(DetectDeprioritize),
		Admission: &AdmissionConfig{
			Rate:    1000,
			Weights: map[string]float64{"adv": 100, FlaggedRoute: 0.001},
		},
	}
	s := NewService(stubPool(t, newStubReplica()), cfg)
	defer s.Close()

	var flaggedShed int
	for i := 0; i < 12; i++ {
		_, err := s.SubmitFrom("adv", "attacker", dupSample(i), time.Time{})
		if err != nil {
			if !errors.Is(err, ErrOverloaded) || errors.Is(err, ErrFlagged) {
				t.Fatalf("deprioritized shed must be a plain admission shed, got %v", err)
			}
			flaggedShed++
		}
	}
	if flaggedShed == 0 {
		t.Fatal("starving the flagged bucket must shed the flagged client's queries")
	}
	// The honest client rides the same route's healthy bucket throughout.
	for i := 0; i < 4; i++ {
		if _, err := s.SubmitFrom("adv", "honest", freshSample(i), time.Time{}); err != nil {
			t.Fatalf("honest client shed: %v", err)
		}
	}
	checkInvariant(t, s.Metrics())
}

// TestDetectDisabledBypass pins the default-off contract: without
// Config.Detect the client identity is inert — no detector, no counters,
// no Flagged results — and with detection on, client-less Submit bypasses
// the detector entirely.
func TestDetectDisabledBypass(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 1})
	if s.Detector() != nil {
		t.Fatal("detector must be nil without Config.Detect")
	}
	for i := 0; i < 8; i++ {
		res, err := s.SubmitFrom("adv", "attacker", dupSample(i), time.Time{})
		if err != nil || res.Flagged {
			t.Fatalf("query %d: err=%v flagged=%v on a detection-free service", i, err, res.Flagged)
		}
	}
	for _, r := range s.Metrics().Snapshot().Routes {
		if r.Probed != 0 || r.FlaggedQueries != 0 {
			t.Fatalf("detector counters moved on a detection-free service: %+v", r)
		}
	}
	s.Close()

	s2 := NewService(stubPool(t, newStubReplica()), Config{MaxBatch: 1, Detect: detectTestConfig(DetectShed)})
	defer s2.Close()
	for i := 0; i < 8; i++ {
		if _, err := s2.Submit("adv", dupSample(i), time.Time{}); err != nil {
			t.Fatalf("client-less Submit must bypass detection, got %v", err)
		}
	}
	if st := s2.Detector().Stats(s2.Clock().Now()); st.Observed != 0 {
		t.Fatalf("client-less submits reached the detector: %+v", st)
	}
}
