package fl

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"pelta/internal/models"
)

// --- test doubles over the Conn transport -------------------------------

// flakyConn fails the wrapped client's update on the given rounds.
type flakyConn struct {
	Conn
	failOn map[int]bool
}

func (f *flakyConn) Update(req UpdateRequest) (UpdateResponse, error) {
	if f.failOn[req.Round] {
		return UpdateResponse{}, fmt.Errorf("simulated transport failure in round %d", req.Round)
	}
	return f.Conn.Update(req)
}

// stubConn answers instantly (after an optional simulated latency) with a
// fixed weight snapshot — an engine-only client with no training cost.
type stubConn struct {
	name  string
	w     Weights
	n     int
	delay time.Duration
}

func (s *stubConn) Update(req UpdateRequest) (UpdateResponse, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return UpdateResponse{ClientID: s.name, Weights: s.w, Samples: s.n}, nil
}

func (s *stubConn) ID() string   { return s.name }
func (s *stubConn) Close() error { return nil }

// --- sampler ------------------------------------------------------------

func TestFullSamplerCoversFleet(t *testing.T) {
	got := FullSampler{}.Sample(3, 5)
	if len(got) != 5 {
		t.Fatalf("FullSampler returned %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FullSampler returned %v", got)
		}
	}
}

func TestUniformSamplerDeterministicAndBounded(t *testing.T) {
	s := UniformSampler{K: 3, Seed: 9}
	a := s.Sample(7, 10)
	b := s.Sample(7, 10)
	if len(a) != 3 {
		t.Fatalf("cohort size %d, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampler not deterministic: %v vs %v", a, b)
		}
		if a[i] < 0 || a[i] >= 10 {
			t.Fatalf("index out of range: %v", a)
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("indices not strictly ascending: %v", a)
		}
	}
	// Different rounds draw different cohorts at least sometimes.
	differs := false
	for r := 1; r <= 20; r++ {
		c := s.Sample(r, 10)
		for i := range c {
			if c[i] != a[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("sampler returned the same cohort for 20 rounds")
	}
}

// --- aggregator ---------------------------------------------------------

func unitUpdate(v float32, samples int) UpdateResponse {
	return UpdateResponse{
		ClientID: "c",
		Weights:  Weights{Names: []string{"w"}, Shapes: [][]int{{1}}, Data: [][]float32{{v}}},
		Samples:  samples,
	}
}

func TestAggregatorDuplicateDelivery(t *testing.T) {
	agg := NewBufferedAggregator(2, 2, 1)
	if ok, _ := agg.Offer(0, unitUpdate(1, 10), 0, 0); !ok {
		t.Fatal("first delivery must be accepted")
	}
	// The transport redelivers the same round-0 update (e.g. a TCP retry).
	ok, why := agg.Offer(0, unitUpdate(1, 10), 0, 0)
	if ok || why != RejectDuplicate {
		t.Fatalf("duplicate delivery accepted (ok=%v why=%q)", ok, why)
	}
	if st := agg.Stats(); st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want 1 duplicate", st)
	}
	// The same client's update for a later version is NOT a duplicate.
	if ok, why := agg.Offer(0, unitUpdate(2, 10), 1, 1); !ok {
		t.Fatalf("later-version update rejected: %s", why)
	}
}

func TestAggregatorStaleRejection(t *testing.T) {
	agg := NewBufferedAggregator(1, 2, 1)
	// Trained on version 0, global now at version 3: staleness 3 > 2.
	ok, why := agg.Offer(0, unitUpdate(1, 10), 0, 3)
	if ok || why != RejectStale {
		t.Fatalf("beyond-horizon update accepted (ok=%v why=%q)", ok, why)
	}
	if st := agg.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 rejected", st)
	}
	// Staleness 2 is inside the horizon.
	if ok, why := agg.Offer(1, unitUpdate(1, 10), 1, 3); !ok {
		t.Fatalf("in-horizon update rejected: %s", why)
	}
	w, merged, err := agg.Drain(3, Weights{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || w.Data[0][0] != 1 {
		t.Fatalf("drain = %v (%d merged)", w.Data, len(merged))
	}
	if st := agg.Stats(); st.StaleMerged != 1 {
		t.Fatalf("stats = %+v, want 1 stale-merged", st)
	}
}

func TestStalenessFedAvgDiscountsLateUpdates(t *testing.T) {
	fresh := Weights{Names: []string{"w"}, Shapes: [][]int{{1}}, Data: [][]float32{{0}}}
	late := Weights{Names: []string{"w"}, Shapes: [][]int{{1}}, Data: [][]float32{{4}}}
	// Equal sample counts: λ=1 and staleness 1 halves the late update's
	// weight, so the mean lands at 4·(0.5/1.5) = 4/3 instead of 2.
	avg, err := StalenessFedAvg([]Weights{fresh, late}, []int{10, 10}, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := avg.Data[0][0]
	if got < 1.3 || got > 1.37 {
		t.Fatalf("staleness-discounted mean = %v, want ≈4/3", got)
	}
	// λ=0 restores the plain weighted mean.
	avg, err = StalenessFedAvg([]Weights{fresh, late}, []int{10, 10}, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Data[0][0] != 2 {
		t.Fatalf("λ=0 mean = %v, want 2", avg.Data[0][0])
	}
}

// TestStalenessFedAvgGolden pins StalenessFedAvg's arithmetic — float64
// weights, left-to-right total, float32(w/total) fraction, update-major
// accumulation — to a hash taken from the hand-written loop it had before
// it was folded onto weightedMean.
func TestStalenessFedAvgGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(20230913))
	sizes := []int{37, 64, 5}
	updates := make([]Weights, 5)
	for u := range updates {
		w := Weights{Names: []string{"a", "b", "c"}, Shapes: [][]int{{37}, {8, 8}, {5}}, Data: make([][]float32, len(sizes))}
		for i, n := range sizes {
			w.Data[i] = make([]float32, n)
			for j := range w.Data[i] {
				w.Data[i][j] = float32(rng.NormFloat64())
			}
		}
		updates[u] = w
	}
	counts := []int{10, 25, 7, 40, 13}
	for _, tc := range []struct {
		staleness []int
		want      uint64
	}{
		{[]int{0, 1, 2, 0, 3}, 0xf20977bd1050156e},
		{zeros(5), 0x7adbd50e91118fc3},
	} {
		avg, err := StalenessFedAvg(updates, counts, tc.staleness, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, d := range avg.Data {
			for _, v := range d {
				u := math.Float32bits(v)
				h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)})
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Fatalf("staleness %v: hash %#x, want %#x — the mean's arithmetic changed", tc.staleness, got, tc.want)
		}
	}
}

// --- async engine -------------------------------------------------------

// referenceRounds is the test oracle for the engine's deterministic mode: an
// independent, strictly sequential broadcast → update → FedAvg → apply loop
// (Fig. 1 of the paper) sharing nothing with AsyncServer.Run.
func referenceRounds(global models.Model, conns []Conn, rounds int) error {
	for r := 1; r <= rounds; r++ {
		req := UpdateRequest{Round: r, Weights: Snapshot(global)}
		updates := make([]Weights, len(conns))
		counts := make([]int, len(conns))
		for i, c := range conns {
			resp, err := c.Update(req)
			if err != nil {
				return fmt.Errorf("round %d client %s: %w", r, c.ID(), err)
			}
			updates[i], counts[i] = resp.Weights, resp.Samples
		}
		avg, err := FedAvg(updates, counts)
		if err != nil {
			return err
		}
		if err := Apply(global, avg); err != nil {
			return err
		}
	}
	return nil
}

// requireBitEqual fails unless two snapshots agree in every coordinate.
func requireBitEqual(t *testing.T, want, got Weights) {
	t.Helper()
	for i := range want.Data {
		for j := range want.Data[i] {
			if math.Float32bits(want.Data[i][j]) != math.Float32bits(got.Data[i][j]) {
				t.Fatalf("weight %s[%d] differs: %v vs %v", want.Names[i], j, want.Data[i][j], got.Data[i][j])
			}
		}
	}
}

// TestAsyncDeterministicMatchesSequential is the engine's reproducibility
// contract: in deterministic mode with full participation, the engine
// produces the sequential reference loop's result bit-identically, with one
// worker and with one per client.
func TestAsyncDeterministicMatchesSequential(t *testing.T) {
	train, _ := flDataset(t)
	shards := train.Shards(3)
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 2}
	fleet := func() []Conn {
		var conns []Conn
		for i, sh := range shards {
			conns = append(conns, Local(NewHonestClient(fmt.Sprintf("c%d", i), newTestModel(int64(60+i)), sh, tc)))
		}
		return conns
	}

	refGlobal := newTestModel(59)
	if err := referenceRounds(refGlobal, fleet(), 3); err != nil {
		t.Fatal(err)
	}
	want := Snapshot(refGlobal)

	var first []RoundResult
	for _, workers := range []int{1, 3} {
		global := newTestModel(59)
		srv := sequentialServer(global, fleet(), 3)
		srv.Config.Workers = workers
		results, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 3 {
			t.Fatalf("workers %d: %d rounds, want 3", workers, len(results))
		}
		requireBitEqual(t, want, Snapshot(global))
		// Bandwidth accounting follows the weights, so it cannot depend on
		// the worker count either.
		if first == nil {
			first = results
		}
		for i, r := range results {
			if r.DownBytes <= 0 || r.DownBytes != first[i].DownBytes || r.UpBytes != first[i].UpBytes {
				t.Fatalf("workers %d round %d bandwidth %d/%d, workers 1 had %d/%d",
					workers, i+1, r.DownBytes, r.UpBytes, first[i].DownBytes, first[i].UpBytes)
			}
		}
	}
}

// TestAsyncClientDropMidRound: a client that dies mid-round must not stall
// or fail the federation; the round closes over the surviving updates.
func TestAsyncClientDropMidRound(t *testing.T) {
	train, _ := flDataset(t)
	shards := train.Shards(3)
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 3}
	conns := []Conn{
		Local(NewHonestClient("a", newTestModel(70), shards[0], tc)),
		&flakyConn{
			Conn:   Local(NewHonestClient("b", newTestModel(71), shards[1], tc)),
			failOn: map[int]bool{2: true},
		},
		Local(NewHonestClient("c", newTestModel(72), shards[2], tc)),
	}
	srv := &AsyncServer{
		Global: newTestModel(69),
		Conns:  conns,
		Config: AsyncConfig{Rounds: 3, Deterministic: true},
	}
	results, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d rounds, want 3", len(results))
	}
	if results[1].Dropped != 1 || results[1].Merged != 2 {
		t.Fatalf("round 2 = %+v, want 1 drop and 2 merged", results[1])
	}
	if results[0].Merged != 3 || results[2].Merged != 3 {
		t.Fatalf("rounds 1/3 should merge the full fleet: %+v / %+v", results[0], results[2])
	}
	if srv.Drops() != 1 {
		t.Fatalf("server drops = %d, want 1", srv.Drops())
	}
}

// TestAsyncAllClientsDropFails: a fleet that never delivers must surface an
// error instead of spinning.
func TestAsyncAllClientsDropFails(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(1)[0]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 3}
	conns := []Conn{&flakyConn{
		Conn:   Local(NewHonestClient("a", newTestModel(80), shard, tc)),
		failOn: map[int]bool{1: true, 2: true, 3: true},
	}}
	srv := &AsyncServer{Global: newTestModel(81), Conns: conns, Config: AsyncConfig{Rounds: 2}}
	if _, err := srv.Run(); err == nil {
		t.Fatal("federation with a dead fleet must fail")
	}
}

// TestAsyncQuorumAbsorbsStragglers: with a quorum below the fleet size, the
// engine closes rounds without the slow client and folds its late update in
// with a staleness discount instead of losing it. Enough rounds run that
// the straggler is guaranteed to land mid-flight even on a loaded machine
// (it only has to beat the LAST round's close, a ~28 ms head start).
func TestAsyncQuorumAbsorbsStragglers(t *testing.T) {
	m := newTestModel(90)
	w := Snapshot(m)
	conns := []Conn{
		&stubConn{name: "fast-1", w: w, n: 10, delay: 2 * time.Millisecond},
		&stubConn{name: "fast-2", w: w, n: 10, delay: 2 * time.Millisecond},
		&stubConn{name: "slow", w: w, n: 10, delay: 30 * time.Millisecond},
	}
	srv := &AsyncServer{
		Global: m,
		Conns:  conns,
		Config: AsyncConfig{Rounds: 30, Quorum: 2, Workers: 3, MaxStaleness: 1 << 20},
	}
	results, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Fatalf("got %d rounds, want 30", len(results))
	}
	st := srv.Stats()
	if st.Merged < 60 {
		t.Fatalf("stats = %+v, want ≥ 2 merged per round", st)
	}
	if st.StaleMerged == 0 {
		t.Fatalf("stats = %+v: the straggler's updates never merged late", st)
	}
}
