package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"pelta/internal/attack"
	"pelta/internal/core"
	"pelta/internal/dataset"
	"pelta/internal/eval"
	"pelta/internal/fl"
	"pelta/internal/imageio"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peltacraft:", err)
		os.Exit(1)
	}
}

func run() error {
	attackName := flag.String("attack", "pgd", "attack: fgsm, pgd, mim, apgd, cw, square, random")
	shield := flag.Bool("shield", false, "attack the Pelta-shielded model")
	eps := flag.Float64("eps", 0.1, "l∞ budget")
	steps := flag.Int("steps", 20, "iterative steps / queries÷20 for square")
	n := flag.Int("n", 16, "astuteness samples to perturb")
	hw := flag.Int("hw", 16, "image side length")
	ckpt := flag.String("ckpt", "", "model checkpoint to load (and save to, when missing)")
	out := flag.String("out", "", "directory for PPM dumps of the crafted samples")
	seed := flag.Int64("seed", 1, "experiment seed")
	flag.Parse()

	// Defender: a small ViT on the synthetic CIFAR-10 stand-in.
	cfg := dataset.SynthCIFAR10(*hw, *seed)
	cfg.Classes = 6
	cfg.TrainN, cfg.ValN = 600, 200
	train, val := dataset.Generate(cfg)
	m := models.NewViT(models.SmallViT("ViT-craft", cfg.Classes, *hw, *hw/4), tensor.NewRNG(*seed))

	fit := func() error {
		_, err := models.Train(m, train.X, train.Y, models.TrainConfig{Epochs: 6, BatchSize: 32, LR: 2e-3, Seed: *seed})
		return err
	}
	if err := loadOrTrain(*ckpt, m, fit); err != nil {
		return err
	}
	fmt.Printf("clean accuracy: %.1f%%\n", 100*models.Accuracy(m, val.X, val.Y))

	x, y, err := eval.SelectCorrect([]models.Model{m}, val, *n)
	if err != nil {
		return err
	}

	var oracle attack.Oracle = &attack.ClearOracle{M: m}
	if *shield {
		sm, err := core.NewShieldedModel(m, 0)
		if err != nil {
			return err
		}
		so, err := attack.NewShieldedOracle(sm, *seed+100)
		if err != nil {
			return err
		}
		oracle = so
	}

	atk, err := buildAttack(*attackName, float32(*eps), *steps, *seed)
	if err != nil {
		return err
	}
	xadv, err := atk.Perturb(oracle, x, y)
	if err != nil {
		return err
	}
	robust := eval.RobustAccuracy(m, xadv, y)
	fmt.Printf("%s vs %s: robust accuracy %.1f%% (attack success %.1f%%)\n",
		atk.Name(), oracle.Name(), 100*robust, 100*(1-robust))

	if *out != "" {
		n, err := dumpSamples(*out, x, xadv)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d sample triplets to %s\n", n, *out)
	}
	return nil
}

// loadOrTrain restores m from the checkpoint at path (with no path it just
// trains). Only when no file exists there does it train m with fit and
// save the result; any other load error — a corrupt file, a checkpoint of
// another architecture — is returned and the file is left as it was.
func loadOrTrain(path string, m models.Model, fit func() error) error {
	if path == "" {
		return fit()
	}
	err := fl.LoadModel(path, m)
	if !errors.Is(err, fs.ErrNotExist) {
		return err // nil: loaded
	}
	fmt.Fprintf(os.Stderr, "no checkpoint at %s: training and saving one\n", path)
	if err := fit(); err != nil {
		return err
	}
	return fl.SaveModel(path, m)
}

// dumpSamples writes up to 8 rows of x and xadv to dir as clean/adv PPMs
// plus a delta PGM and returns the count. x holds only the samples
// SelectCorrect found, which may be fewer than -n asked for.
func dumpSamples(dir string, x, xadv *tensor.Tensor) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := min(x.Dim(0), 8)
	for i := 0; i < n; i++ {
		xi, ai := x.Slice(i), xadv.Slice(i)
		if err := errors.Join(
			imageio.WritePPM(filepath.Join(dir, fmt.Sprintf("clean_%d.ppm", i)), xi),
			imageio.WritePPM(filepath.Join(dir, fmt.Sprintf("adv_%d.ppm", i)), ai),
			imageio.WritePGM(filepath.Join(dir, fmt.Sprintf("delta_%d.pgm", i)), tensor.Sub(ai, xi)),
		); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func buildAttack(name string, eps float32, steps int, seed int64) (attack.Attack, error) {
	step := eps / 8
	switch name {
	case "fgsm":
		return &attack.FGSM{Eps: eps}, nil
	case "pgd":
		return &attack.PGD{Eps: eps, Step: step, Steps: steps}, nil
	case "mim":
		return &attack.MIM{Eps: eps, Step: step, Steps: steps, Mu: 1}, nil
	case "apgd":
		return &attack.APGD{Eps: eps, Steps: steps, Rho: 0.75, Restarts: 1, Seed: seed}, nil
	case "cw":
		return &attack.CW{Confidence: 0, Step: 0.01, Steps: steps + 10, C: 0.05}, nil
	case "square":
		return &attack.Square{Eps: eps, Queries: steps * 20, Seed: seed}, nil
	case "random":
		return &attack.RandomUniform{Eps: eps, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("unknown attack %q", name)
	}
}
