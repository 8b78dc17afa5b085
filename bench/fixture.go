package main

import (
	"fmt"

	"pelta/internal/dataset"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// Fixed shape of every workload: the repo's standard small ViT on 16×16
// synthetic CIFAR-10, two load connections, two replicas, two FL workers.
// They do not follow the host's core count, so numbers from hosts of
// different sizes describe the same experiment.
const (
	imageHW  = 16
	classes  = 10
	lanes    = 2 // load connections, serving replicas and FL workers
	valN     = 256
	pgdBatch = 8
	// poolN training samples are generated; the defender trains on the
	// first sizing.trainN of them and FL deals its shards from all.
	poolN = 400
)

// sizing holds what -smoke shrinks; everything else is a constant.
type sizing struct {
	trainN, epochs, batch int
	lr                    float64
	// setupReps is the least number of times set-up is repeated; setup_s is
	// the median.
	setupReps int
	// gates turns on the quality thresholds (robust accuracy, FL accuracy);
	// the identity checks run regardless.
	gates bool
	// directScale multiplies the repetition counts of the direct-call layer
	// timings.
	directScale float64
}

// fullSizing trains 160 Adam steps, the least that reached ≥ 0.98 validation
// accuracy on every seed tried (see README, "Sizing").
var fullSizing = sizing{trainN: 320, epochs: 4, batch: 8, lr: 2e-3, setupReps: 3, gates: true, directScale: 1}

var smokeSizing = sizing{trainN: 200, epochs: 2, batch: 8, lr: 2e-3, setupReps: 1, directScale: 0.1}

// Offsets added to -seed, so that no two random streams coincide. The model
// initialiser and the attacker's upsampling kernel in particular must
// differ: both draw a uniform tensor first, and with one seed the attacker
// would "guess" the shielded embedding exactly.
const (
	seedModel   = 1
	seedTrain   = 2
	seedTraffic = 3
	seedShards  = 41
	seedAttack  = 101
	seedReplica = 1000
)

// fixture is the data and the trained defender every workload starts from.
type fixture struct {
	sz         sizing
	seed       int64
	train, val *dataset.Dataset
	// model is the clear reference: the benchmark compares served classes
	// with its predictions and never hands it to a program under test.
	model    *models.ViT
	weights  fl.Weights
	refClass []int
	cleanAcc float64
}

func newViT(seed int64) *models.ViT {
	return models.NewViT(models.SmallViT("ViT-L/16", classes, imageHW, imageHW/4), tensor.NewRNG(seed))
}

// newFixture generates the dataset from seed and, when trained is set, fits
// the defender on it. FL starts from a fresh model and skips the training.
func newFixture(sz sizing, seed int64, trained bool) (*fixture, error) {
	cfg := dataset.SynthCIFAR10(imageHW, seed)
	cfg.TrainN, cfg.ValN = poolN, valN
	fx := &fixture{sz: sz, seed: seed}
	fx.train, fx.val = dataset.Generate(cfg)
	fx.model = newViT(seed + seedModel)
	if trained {
		tc := models.TrainConfig{Epochs: sz.epochs, BatchSize: sz.batch, LR: sz.lr, Seed: seed + seedTrain}
		if _, err := models.Train(fx.model, fx.train.X.SliceRange(0, sz.trainN), fx.train.Y[:sz.trainN], tc); err != nil {
			return nil, fmt.Errorf("training the defender: %w", err)
		}
	}
	fx.weights = fl.Snapshot(fx.model)
	fx.refClass = models.Predict(fx.model, fx.val.X)
	for i, c := range fx.refClass {
		if c == fx.val.Y[i] {
			fx.cleanAcc++
		}
	}
	fx.cleanAcc /= float64(len(fx.refClass))
	return fx, nil
}

// copyModel returns an independent model carrying the fixture's weights:
// replicas, oracles and FL clients must not share parameter tensors.
func (fx *fixture) copyModel(i int) (*models.ViT, error) {
	m := newViT(fx.seed + seedReplica + int64(i))
	if err := fl.Apply(m, fx.weights); err != nil {
		return nil, err
	}
	return m, nil
}
