package fl

import (
	"math"
	"testing"
	"time"

	"pelta/internal/attack"
	"pelta/internal/dataset"
	"pelta/internal/models"
)

func TestValidPoison(t *testing.T) {
	for _, name := range append(PoisonStrategies(), "", "none") {
		if err := ValidPoison(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if err := ValidPoison("gaslight"); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

// TestSignFlipMirrorsHonestUpdate: with identical seeds the sign-flipped
// update must be the exact mirror of the honest one around the broadcast.
func TestSignFlipMirrorsHonestUpdate(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(4)[0]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 5}
	req := UpdateRequest{Round: 1, Weights: Snapshot(newTestModel(40))}

	honest := NewHonestClient("h", newTestModel(41), shard, tc)
	hResp, err := honest.Update(req)
	if err != nil {
		t.Fatal(err)
	}
	flip := NewSignFlipClient("f", newTestModel(41), shard, tc)
	fResp, err := flip.Update(req)
	if err != nil {
		t.Fatal(err)
	}
	if fResp.Samples != hResp.Samples {
		t.Fatalf("samples %d, want %d (protocol surface must look honest)", fResp.Samples, hResp.Samples)
	}
	for i := range hResp.Weights.Data {
		p := req.Weights.Data[i]
		for j := range hResp.Weights.Data[i] {
			want := 2*float64(p[j]) - float64(hResp.Weights.Data[i][j])
			if got := float64(fResp.Weights.Data[i][j]); math.Abs(got-want) > 1e-5 {
				t.Fatalf("tensor %d[%d]: got %v, want mirrored %v", i, j, got, want)
			}
		}
	}
}

// TestModelReplacementBoostsDelta: the reported delta must scale linearly
// with Boost, and the malicious training target must differ from honest.
func TestModelReplacementBoostsDelta(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(4)[0]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 5}
	req := UpdateRequest{Round: 1, Weights: Snapshot(newTestModel(42))}

	run := func(boost float64) UpdateResponse {
		c := NewModelReplacementClient("r", newTestModel(43), shard, tc, 1)
		c.Boost = boost
		resp, err := c.Update(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1, r4 := run(1), run(4)
	var norm1, diff float64
	for i := range r1.Weights.Data {
		p := req.Weights.Data[i]
		for j := range r1.Weights.Data[i] {
			d1 := float64(r1.Weights.Data[i][j]) - float64(p[j])
			d4 := float64(r4.Weights.Data[i][j]) - float64(p[j])
			norm1 += d1 * d1
			diff += (d4 - 4*d1) * (d4 - 4*d1)
		}
	}
	if norm1 == 0 {
		t.Fatal("replacement client trained no delta")
	}
	if math.Sqrt(diff) > 1e-3*math.Sqrt(norm1) {
		t.Fatalf("boost=4 delta is not 4× the boost=1 delta (residual %v of %v)", math.Sqrt(diff), math.Sqrt(norm1))
	}
}

// TestModelReplacementDefeatedByDefenses is the subsystem's reason to
// exist, in miniature: one boosted replacer in a four-client federation
// wrecks plain FedAvg, while Multi-Krum keeps the global model close to its
// clean accuracy by averaging only the honest cluster.
func TestModelReplacementDefeatedByDefenses(t *testing.T) {
	// 3 classes across 4 clients: stride sharding then cycles labels, so
	// every client sees every class and a defense may exclude one client
	// without deleting a class from the federation (4 clients × 4 classes
	// would give each device a single label).
	cfg := dataset.SynthCIFAR10(8, 51)
	cfg.Classes = 3
	cfg.TrainN, cfg.ValN = 240, 80
	train, val := dataset.Generate(cfg)
	shards := train.Shards(4)
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 2e-3, Seed: 7}

	run := func(agg Aggregator, poisoned bool) float64 {
		conns := make([]Conn, 4)
		for i := 0; i < 3; i++ {
			conns[i] = Local(NewHonestClient("h", newTestModel(int64(50+i)), shards[i], tc))
		}
		if poisoned {
			conns[3] = Local(NewModelReplacementClient("r", newTestModel(53), shards[3], tc, 4))
		} else {
			conns[3] = Local(NewHonestClient("h3", newTestModel(53), shards[3], tc))
		}
		srv := sequentialServer(newTestModel(49), conns, 5)
		srv.Config.Agg = agg
		if _, err := srv.Run(); err != nil {
			t.Fatal(err)
		}
		return models.Accuracy(srv.Global, val.X, val.Y)
	}

	clean := run(nil, false)
	poisonedAvg := run(nil, true)
	multikrum, err := NewAggregator(DefenseMultiKrum)
	if err != nil {
		t.Fatal(err)
	}
	defended := run(multikrum, true)

	if clean <= 0.3 {
		t.Fatalf("clean federation should learn something, got %.2f", clean)
	}
	if poisonedAvg >= clean*0.8 {
		t.Fatalf("model replacement barely hurt FedAvg: clean %.2f vs poisoned %.2f", clean, poisonedAvg)
	}
	if defended < clean*0.8 {
		t.Fatalf("multikrum did not recover: clean %.2f, defended %.2f", clean, defended)
	}
}

// TestNaNBombContained: one client whose update carries a single NaN must
// cost the federation that client's update and nothing else, whatever the
// aggregation rule — unchecked, the NaN reaches every coordinate of the
// global model through the mean (fedavg, normclip) within two rounds.
func TestNaNBombContained(t *testing.T) {
	const rounds = 2
	bomb := Snapshot(newTestModel(4))
	bomb.Data[0][0] = float32(math.NaN())
	for _, name := range AggregatorNames() {
		agg, err := NewAggregator(name)
		if err != nil {
			t.Fatal(err)
		}
		conns := []Conn{
			&stubConn{name: "h1", w: Snapshot(newTestModel(1)), n: 10},
			&stubConn{name: "h2", w: Snapshot(newTestModel(2)), n: 20},
			&stubConn{name: "nan", w: bomb, n: 30},
			&stubConn{name: "h3", w: Snapshot(newTestModel(3)), n: 10},
		}
		global := newTestModel(5)
		srv := sequentialServer(global, conns, rounds)
		srv.Config.Agg = agg
		results, err := srv.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range results {
			if r.Merged != 3 || len(r.Notes) != 1 || r.Notes[0] != "nan: update refused ("+RejectNonFinite+")" {
				t.Fatalf("%s round %d: merged %d, notes %q; want the three honest updates and the refusal", name, r.Round, r.Merged, r.Notes)
			}
		}
		if st := srv.Stats(); st.NonFinite != rounds || st.Merged != 3*rounds {
			t.Fatalf("%s: stats %+v, want %d non-finite refusals", name, st, rounds)
		}
		if nonFinite(Snapshot(global)) {
			t.Fatalf("%s: the global model carries a non-finite coordinate", name)
		}
	}
}

// The malicious trainers go through HonestClient.fit, so they fill the same
// telemetry an honest client does: TrainNS measured on the injected clock
// (two reads, one tick apart) and Samples counting the set they trained on.
func TestMaliciousTrainersReportFitTelemetry(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(4)[0]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 5}
	req := UpdateRequest{Round: 1, Weights: Snapshot(newTestModel(44))}

	poisoner := NewPoisoningClient("eve", newTestModel(45), shard, tc, &attack.FGSM{Eps: 0.1}, 0.25, false)
	poisoner.Honest.Now = newTickClock(time.Millisecond).Now
	replacer := NewModelReplacementClient("mallory", newTestModel(46), shard, tc, 4)
	replacer.Honest.Now = newTickClock(time.Millisecond).Now
	for _, c := range []Client{poisoner, replacer} {
		resp, err := c.Update(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ClientID != c.ID() || resp.Note == "" {
			t.Fatalf("%s: response %q note %q", c.ID(), resp.ClientID, resp.Note)
		}
		if resp.TrainNS != time.Millisecond.Nanoseconds() {
			t.Fatalf("%s: TrainNS = %d, want one 1ms tick", c.ID(), resp.TrainNS)
		}
		if resp.Samples != shard.Len() {
			t.Fatalf("%s: samples = %d, want %d", c.ID(), resp.Samples, shard.Len())
		}
	}
}
