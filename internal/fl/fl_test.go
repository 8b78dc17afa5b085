package fl

import (
	"math"
	"net"
	"strings"
	"testing"

	"pelta/internal/attack"
	"pelta/internal/dataset"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

func flDataset(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.SynthCIFAR10(8, 51)
	cfg.Classes = 4
	cfg.TrainN, cfg.ValN = 240, 80
	return generate2(cfg)
}

func generate2(cfg dataset.Config) (*dataset.Dataset, *dataset.Dataset) {
	train, val := dataset.Generate(cfg)
	return train, val
}

func newTestModel(seed int64) models.Model {
	return models.NewViT(models.SmallViT("vit-fl", 4, 8, 4), tensor.NewRNG(seed))
}

// sequentialServer builds the engine in its sequential regime: barriered
// rounds, one worker, clients visited in order.
func sequentialServer(global models.Model, conns []Conn, rounds int) *AsyncServer {
	return &AsyncServer{
		Global: global,
		Conns:  conns,
		Config: AsyncConfig{Rounds: rounds, Deterministic: true, Workers: 1},
	}
}

func TestSnapshotApplyRoundTrip(t *testing.T) {
	m1 := newTestModel(1)
	m2 := newTestModel(2)
	w := Snapshot(m1)
	if err := Apply(m2, w); err != nil {
		t.Fatal(err)
	}
	// After Apply, both models predict identically.
	x := tensor.NewRNG(3).Uniform(0, 1, 4, 3, 8, 8)
	p1 := models.Predict(m1, x)
	p2 := models.Predict(m2, x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("weight transfer changed behaviour")
		}
	}
}

func TestApplyRejectsMismatch(t *testing.T) {
	m := newTestModel(1)
	w := Snapshot(m)
	w.Names[0] = "wrong"
	if err := Apply(m, w); err == nil {
		t.Fatal("name mismatch must fail")
	}
	w2 := Snapshot(m)
	w2.Data[0] = w2.Data[0][:1]
	if err := Apply(m, w2); err == nil {
		t.Fatal("size mismatch must fail")
	}
	w3 := Snapshot(m)
	w3.Data = w3.Data[:2]
	if err := Apply(m, w3); err == nil {
		t.Fatal("count mismatch must fail")
	}
	// A snapshot with fewer names than tensors used to index past Names.
	w4 := Snapshot(m)
	w4.Names = w4.Names[:1]
	if err := Apply(m, w4); err == nil {
		t.Fatal("short Names must fail")
	}
	w5 := Snapshot(m)
	w5.Data[1][0] = float32(math.NaN())
	if err := Apply(m, w5); err == nil {
		t.Fatal("a NaN weight must fail")
	}
}

func TestFedAvgWeightedMean(t *testing.T) {
	a := Weights{Names: []string{"w"}, Shapes: [][]int{{2}}, Data: [][]float32{{1, 2}}}
	b := Weights{Names: []string{"w"}, Shapes: [][]int{{2}}, Data: [][]float32{{3, 6}}}
	avg, err := FedAvg([]Weights{a, b}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// (1*1 + 3*3)/4 = 2.5 ; (1*2 + 3*6)/4 = 5
	if avg.Data[0][0] != 2.5 || avg.Data[0][1] != 5 {
		t.Fatalf("FedAvg = %v", avg.Data[0])
	}
}

func TestFedAvgErrors(t *testing.T) {
	if _, err := FedAvg(nil, nil); err == nil {
		t.Fatal("empty updates must fail")
	}
	a := Weights{Names: []string{"w"}, Shapes: [][]int{{1}}, Data: [][]float32{{1}}}
	if _, err := FedAvg([]Weights{a}, []int{0}); err == nil {
		t.Fatal("zero count must fail")
	}
	if _, err := FedAvg([]Weights{a, a}, []int{1}); err == nil {
		t.Fatal("count/update mismatch must fail")
	}
}

func TestFederatedTrainingImprovesGlobalModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	train, val := flDataset(t)
	shards := train.Shards(3)
	global := newTestModel(10)
	tc := models.TrainConfig{Epochs: 2, BatchSize: 16, LR: 2e-3, Seed: 1}
	var conns []Conn
	for i, sh := range shards {
		conns = append(conns, Local(NewHonestClient(
			"client"+string(rune('A'+i)), newTestModel(int64(20+i)), sh, tc)))
	}
	before := models.Accuracy(global, val.X, val.Y)
	srv := sequentialServer(global, conns, 3)
	srv.Eval = func(m models.Model) float64 { return models.Accuracy(m, val.X, val.Y) }
	results, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	after := results[len(results)-1].Accuracy
	if after < before+0.3 || after < 0.7 {
		t.Fatalf("global accuracy %.2f → %.2f; federation failed to learn", before, after)
	}
	// Accuracy is non-collapsing across rounds.
	for i := 1; i < len(results); i++ {
		if results[i].Accuracy < results[i-1].Accuracy-0.25 {
			t.Fatalf("round %d accuracy collapsed: %v", i+1, results)
		}
	}
}

// TestParallelMatchesSequentialAggregation: fanning the cohort out over a
// worker pool must not change a single bit of the deterministic aggregate.
func TestParallelMatchesSequentialAggregation(t *testing.T) {
	train, _ := flDataset(t)
	shards := train.Shards(2)
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 2}
	run := func(workers int) Weights {
		global := newTestModel(30)
		conns := []Conn{
			Local(NewHonestClient("a", newTestModel(31), shards[0], tc)),
			Local(NewHonestClient("b", newTestModel(32), shards[1], tc)),
		}
		srv := sequentialServer(global, conns, 1)
		srv.Config.Workers = workers
		if _, err := srv.Run(); err != nil {
			t.Fatal(err)
		}
		return Snapshot(global)
	}
	requireBitEqual(t, run(1), run(len(shards)))
}

func TestTCPTransportRoundTrip(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(4)[0]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 3}
	client := NewHonestClient("remote", newTestModel(40), shard, tc)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeClient(lis, client)
	}()

	conn, err := Dial(lis.Addr().String(), "remote")
	if err != nil {
		t.Fatal(err)
	}
	global := newTestModel(41)
	req := UpdateRequest{Round: 1, Weights: Snapshot(global)}
	resp, err := conn.Update(req)
	if err != nil {
		t.Fatalf("TCP update: %v", err)
	}
	if resp.ClientID != "remote" || resp.Samples != shard.Len() {
		t.Fatalf("resp = %+v", resp)
	}
	if len(resp.Weights.Data) != len(req.Weights.Data) {
		t.Fatal("weights lost in transit")
	}
	// Second round over the same connection.
	if _, err := conn.Update(UpdateRequest{Round: 2, Weights: Snapshot(global)}); err != nil {
		t.Fatalf("second round: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	lis.Close()
	<-done
}

func TestServerNoClients(t *testing.T) {
	_, err := sequentialServer(newTestModel(1), nil, 1).Run()
	if err == nil || !strings.Contains(err.Error(), "no clients") {
		t.Fatalf("clientless federation must fail naming the cause, got %v", err)
	}
}

func TestCompromisedClientShieldMitigatesProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	train, val := flDataset(t)
	shards := train.Shards(2)
	tc := models.TrainConfig{Epochs: 3, BatchSize: 16, LR: 2e-3, Seed: 4}
	probe := &attack.PGD{Eps: 0.1, Step: 0.0125, Steps: 10}

	runFL := func(shield bool) *CompromisedClient {
		global := newTestModel(50)
		comp := NewCompromisedClient("mallory", newTestModel(51), shards[0], tc, probe, 10, shield)
		srv := sequentialServer(global, []Conn{
			Local(comp),
			Local(NewHonestClient("alice", newTestModel(52), shards[1], tc)),
		}, 2)
		srv.Eval = func(m models.Model) float64 { return models.Accuracy(m, val.X, val.Y) }
		results, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Attack telemetry is surfaced in round notes.
		foundNote := false
		for _, r := range results {
			for _, n := range r.Notes {
				if strings.Contains(n, "attack round") {
					foundNote = true
				}
			}
		}
		if !foundNote {
			t.Fatal("compromised client should report attack outcomes")
		}
		return comp
	}

	clear := runFL(false)
	shielded := runFL(true)
	lastClear := clear.Outcomes[len(clear.Outcomes)-1]
	lastShield := shielded.Outcomes[len(shielded.Outcomes)-1]
	// The FL-level headline: with Pelta on the device, the probe's success
	// collapses relative to the clear white-box.
	if lastShield.RobustAccuracy < lastClear.RobustAccuracy+0.3 {
		t.Fatalf("shielded probe robust=%.2f vs clear=%.2f — Pelta ineffective in FL loop",
			lastShield.RobustAccuracy, lastClear.RobustAccuracy)
	}
}
