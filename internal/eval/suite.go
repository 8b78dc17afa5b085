package eval

import (
	"fmt"

	"pelta/internal/dataset"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// Block is one dataset block of the evaluation: the trained defenders of
// §V-A1/2 plus the validation data. The models are scaled-down variants
// carrying the paper's architecture names: attacks act on the
// computational-graph structure, which the variants preserve.
type Block struct {
	Name      string
	Train     *dataset.Dataset
	Val       *dataset.Dataset
	Defenders []models.Model
	// ViT and BiT are the ensemble members of §V-A2.
	ViT *models.ViT
	BiT *models.BiT
}

// BlockConfig controls how a block is built.
type BlockConfig struct {
	Dataset dataset.Config
	Train   models.TrainConfig
	// EvalN is the number of astuteness samples (1000 in the paper).
	EvalN int
	// AllDefenders includes every §V-A1 model; otherwise only the ensemble
	// pair is trained (enough for Table IV and quick runs).
	AllDefenders bool
	Seed         int64
}

// QuickBlockConfig returns a configuration sized for seconds-scale runs:
// 16×16 images and a few hundred training samples.
func QuickBlockConfig(ds dataset.Config) BlockConfig {
	ds.HW = 16
	if ds.Classes > 20 {
		ds.Classes = 20 // scaled-down class count
	}
	ds.TrainN, ds.ValN = 800, 240
	return BlockConfig{
		Dataset: ds,
		Train:   models.TrainConfig{Epochs: 5, BatchSize: 32, LR: 2e-3, Seed: 1},
		EvalN:   32,
		Seed:    1,
	}
}

// BuildBlock generates the data and trains the defenders.
func BuildBlock(cfg BlockConfig) (*Block, error) {
	train, val := dataset.Generate(cfg.Dataset)
	hw, classes := cfg.Dataset.HW, cfg.Dataset.Classes
	rng := tensor.NewRNG(cfg.Seed)

	vitL := models.NewViT(models.ViTConfig{
		Name: "ViT-L/16", InputC: 3, InputHW: hw, Patch: hw / 4,
		Dim: 64, Depth: 6, Heads: 4, MLPDim: 128, Classes: classes,
	}, rng)
	bit := models.NewBiT(models.BiTConfig{
		Name: "BiT-M-R101x3", InputC: 3, InputHW: hw, StemK: 3, StemStride: 1,
		StageBlocks: []int{1, 1, 1}, BaseWidth: 16, WidthFactor: 1, Groups: 4, Classes: classes,
	}, rng)

	b := &Block{Name: cfg.Dataset.Name, Train: train, Val: val, ViT: vitL, BiT: bit}
	b.Defenders = []models.Model{vitL, bit}
	if cfg.AllDefenders {
		vitB16 := models.NewViT(models.ViTConfig{
			Name: "ViT-B/16", InputC: 3, InputHW: hw, Patch: hw / 4,
			Dim: 48, Depth: 4, Heads: 4, MLPDim: 96, Classes: classes,
		}, rng)
		vitB32 := models.NewViT(models.ViTConfig{
			Name: "ViT-B/32", InputC: 3, InputHW: hw, Patch: hw / 2,
			Dim: 48, Depth: 4, Heads: 4, MLPDim: 96, Classes: classes,
		}, rng)
		rn56 := models.NewResNet(models.ResNetConfig{
			Name: "ResNet-56", InputC: 3, InputHW: hw,
			Widths: [3]int{8, 16, 32}, BlocksPerStep: 2, Classes: classes,
		}, rng)
		rn164 := models.NewResNet(models.ResNetConfig{
			Name: "ResNet-164", InputC: 3, InputHW: hw,
			Widths: [3]int{16, 32, 64}, BlocksPerStep: 2, Bottleneck: true, Classes: classes,
		}, rng)
		b.Defenders = []models.Model{vitL, vitB16, vitB32, rn56, rn164, bit}
	}
	for _, m := range b.Defenders {
		if _, err := models.Train(m, train.X, train.Y, cfg.Train); err != nil {
			return nil, fmt.Errorf("eval: training %s: %w", m.Name(), err)
		}
		if acc := models.Accuracy(m, val.X, val.Y); acc < 1.5/float64(classes) {
			return nil, fmt.Errorf("eval: %s failed to train (val accuracy %.2f)", m.Name(), acc)
		}
	}
	return b, nil
}
