package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pelta/internal/dataset"
	"pelta/internal/eval"
	"pelta/internal/models"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peltabench:", err)
		os.Exit(1)
	}
}

type options struct {
	tables   string
	figs     string
	ds       string
	hw       int
	trainN   int
	valN     int
	epochs   int
	evalN    int
	steps    int
	full     bool
	out      string
	seed     int64
	classes  int
	overhead bool
}

func run() error {
	var o options
	flag.StringVar(&o.tables, "table", "", "tables to regenerate: 1,2,3,4 or all")
	flag.StringVar(&o.figs, "fig", "", "figures to regenerate: 3,4 or all")
	flag.StringVar(&o.ds, "dataset", "cifar10", "dataset block: cifar10, cifar100, imagenet, or all")
	flag.IntVar(&o.hw, "hw", 16, "image side length")
	flag.IntVar(&o.trainN, "trainn", 800, "training samples per block")
	flag.IntVar(&o.valN, "valn", 240, "validation samples per block")
	flag.IntVar(&o.epochs, "epochs", 5, "training epochs")
	flag.IntVar(&o.evalN, "n", 32, "astuteness samples (paper: 1000)")
	flag.IntVar(&o.steps, "steps", 10, "iterative attack steps (paper: 20)")
	flag.BoolVar(&o.full, "full", false, "train all six Table III defenders (default: ensemble pair)")
	flag.StringVar(&o.out, "out", "", "directory for Fig. 4 image dumps")
	flag.Int64Var(&o.seed, "seed", 1, "experiment seed")
	flag.IntVar(&o.classes, "classes", 0, "override class count (0 = dataset default, capped at 20 for quick runs)")
	flag.BoolVar(&o.overhead, "overhead", false, "measure the §VI TEE overheads per defender")
	flag.Parse()

	if o.tables == "" && o.figs == "" {
		o.tables, o.figs = "all", "all"
	}
	want := func(spec, item string) bool {
		return spec == "all" || hasItem(spec, item)
	}

	if want(o.tables, "1") {
		fmt.Println("=== Table I — enclave memory cost (paper-scale configs, ImageNet dims) ===")
		fmt.Print(eval.RenderTable1(eval.Table1()))
		fmt.Println()
	}
	set := eval.DefaultAttackSet()
	set.Steps = o.steps
	set.Seed = o.seed
	if want(o.tables, "2") {
		fmt.Println("=== Table II — attack parameters in use (rescaled; paper used ε=0.031/0.062) ===")
		fmt.Printf("FGSM  ε=%.3f\nPGD   ε=%.3f ε_step=%.4f steps=%d\nMIM   ε=%.3f ε_step=%.4f µ=1.0\n",
			set.Eps, set.Eps, set.EpsStep, set.Steps, set.Eps, set.EpsStep)
		fmt.Printf("APGD  ε=%.3f N_restarts=1 ρ=0.75\nC&W   confidence=0 step=0.010 steps=%d\nSAGA  α_k=0.5 ε_step=%.4f\n\n",
			set.Eps, set.Steps+10, set.EpsStep)
	}
	if want(o.figs, "3") {
		res, err := eval.RunFig3()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		fmt.Println()
	}

	needBlocks := want(o.tables, "3") || want(o.tables, "4") || want(o.figs, "4") || o.overhead
	if !needBlocks {
		return nil
	}
	for _, name := range datasets(o.ds) {
		blk, err := buildBlock(o, name)
		if err != nil {
			return err
		}
		if want(o.tables, "3") {
			tbl := eval.Table3{Dataset: blk.Name}
			for _, m := range blk.Defenders {
				start := time.Now()
				row, err := eval.RunTable3Row(m, blk.Val, o.evalN, set)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "  [table 3] %s done in %v\n", m.Name(), time.Since(start).Round(time.Second))
				tbl.Rows = append(tbl.Rows, row)
			}
			fmt.Printf("=== Table III — %s, robust accuracy non-shielded vs shielded ===\n", blk.Name)
			fmt.Print(tbl.Render())
			fmt.Println()
		}
		if want(o.tables, "4") {
			tbl, err := eval.RunTable4(blk.ViT, blk.BiT, blk.Val, o.evalN, set)
			if err != nil {
				return err
			}
			fmt.Printf("=== Table IV — %s, shielded ensemble vs SAGA ===\n", blk.Name)
			fmt.Print(tbl.Render())
			fmt.Println()
		}
		if o.overhead {
			var rows []*eval.OverheadReport
			for _, m := range blk.Defenders {
				rep, err := eval.MeasureOverhead(m, 3)
				if err != nil {
					return err
				}
				rows = append(rows, rep)
			}
			fmt.Printf("=== §VI — TEE overheads per shielded inference (%s) ===\n", blk.Name)
			fmt.Print(eval.RenderOverhead(rows))
			fmt.Println()
		}
		if want(o.figs, "4") {
			res, err := eval.RunFig4(blk.ViT, blk.BiT, blk.Val, set)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
			if o.out != "" {
				dir := o.out + "/" + strings.ToLower(strings.ReplaceAll(blk.Name, "/", "_"))
				if err := res.WriteImages(dir); err != nil {
					return err
				}
				fmt.Printf("images written to %s\n", dir)
			}
			fmt.Println()
		}
	}
	return nil
}

func hasItem(spec, item string) bool {
	for _, s := range strings.Split(spec, ",") {
		if strings.TrimSpace(s) == item {
			return true
		}
	}
	return false
}

func datasets(spec string) []string {
	if spec == "all" {
		return []string{"cifar10", "cifar100", "imagenet"}
	}
	return strings.Split(spec, ",")
}

func buildBlock(o options, name string) (*eval.Block, error) {
	var ds dataset.Config
	switch strings.TrimSpace(name) {
	case "cifar10":
		ds = dataset.SynthCIFAR10(o.hw, o.seed+10)
	case "cifar100":
		ds = dataset.SynthCIFAR100(o.hw, o.seed+20)
	case "imagenet":
		ds = dataset.SynthImageNet(o.hw, o.seed+30)
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	if o.classes > 0 {
		ds.Classes = o.classes
	} else if ds.Classes > 20 {
		ds.Classes = 20 // quick-run cap; raise with -classes
	}
	ds.TrainN, ds.ValN = o.trainN, o.valN
	cfg := eval.BlockConfig{
		Dataset:      ds,
		Train:        models.TrainConfig{Epochs: o.epochs, BatchSize: 32, LR: 2e-3, Seed: o.seed, Verbose: true},
		EvalN:        o.evalN,
		AllDefenders: o.full,
		Seed:         o.seed,
	}
	fmt.Fprintf(os.Stderr, "[peltabench] training %s block (hw=%d classes=%d train=%d)...\n",
		ds.Name, ds.HW, ds.Classes, ds.TrainN)
	start := time.Now()
	blk, err := eval.BuildBlock(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "[peltabench] block ready in %v\n", time.Since(start).Round(time.Second))
	return blk, nil
}
