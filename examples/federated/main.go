// Federated scenario (Fig. 1): a trusted server aggregates updates from
// honest clients while a compromised client probes every broadcast model.
// The run compares the attacker's success with and without Pelta on its
// device.
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"os"

	"pelta/internal/attack"
	"pelta/internal/dataset"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "federated:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := dataset.SynthCIFAR10(16, 7)
	cfg.Classes = 6
	cfg.TrainN, cfg.ValN = 900, 200
	train, val := dataset.Generate(cfg)
	shards := train.Shards(3)

	newModel := func(seed int64) models.Model {
		return models.NewViT(models.SmallViT("ViT-fl", cfg.Classes, 16, 4), tensor.NewRNG(seed))
	}
	tc := models.TrainConfig{Epochs: 3, BatchSize: 32, LR: 2e-3, Seed: 1}
	probe := &attack.PGD{Eps: 0.1, Step: 0.0125, Steps: 10}

	for _, shieldOn := range []bool{false, true} {
		fmt.Printf("=== federation with shield=%v ===\n", shieldOn)
		compromised := fl.NewCompromisedClient("mallory", newModel(100), shards[0], tc, probe, 12, shieldOn)
		// The round engine: clients train concurrently on a worker pool
		// and the deterministic mode barriers each round, so this run is
		// the synchronous FedAvg loop of Fig. 1, bit-reproducible for a
		// given seed.
		server := &fl.AsyncServer{
			Global: newModel(1),
			Conns: []fl.Conn{
				fl.Local(compromised),
				fl.Local(fl.NewHonestClient("alice", newModel(2), shards[1], tc)),
				fl.Local(fl.NewHonestClient("bob", newModel(3), shards[2], tc)),
			},
			Config: fl.AsyncConfig{Rounds: 6, Deterministic: true},
			Eval:   func(m models.Model) float64 { return models.Accuracy(m, val.X, val.Y) },
		}
		results, err := server.Run()
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Printf("round %d: global accuracy %.1f%% (merged %d updates)\n", r.Round, 100*r.Accuracy, r.Merged)
			for _, n := range r.Notes {
				fmt.Println("  ", n)
			}
		}
		last := compromised.Outcomes[len(compromised.Outcomes)-1]
		fmt.Printf("attacker's final success rate: %.1f%%\n\n", 100*(1-last.RobustAccuracy))
	}
	fmt.Println("With the shield, the compromised node can no longer complete the")
	fmt.Println("back-propagation chain rule and its crafted samples stop transferring.")
	return nil
}
