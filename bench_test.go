// Benchmarks regenerating every table and figure of the paper's evaluation.
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN/BenchmarkFigN prints its table or figure data once
// (the quick configuration; cmd/peltabench runs larger sweeps) and then
// times the experiment's core operation. Set PELTA_BENCH_FULL=1 to include
// all six defenders of Table III instead of the ensemble pair.
package pelta

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"pelta/internal/attack"
	"pelta/internal/autograd"
	"pelta/internal/core"
	"pelta/internal/dataset"
	"pelta/internal/eval"
	"pelta/internal/models"
	"pelta/internal/tee"
	"pelta/internal/tensor"
)

// benchState lazily trains the shared defender block.
var (
	benchOnce sync.Once
	benchBlk  *eval.Block
	benchErr  error
	benchSet  eval.AttackSet
)

func benchBlock(b *testing.B) *eval.Block {
	b.Helper()
	benchOnce.Do(func() {
		cfg := eval.QuickBlockConfig(dataset.SynthCIFAR10(16, 71))
		cfg.AllDefenders = os.Getenv("PELTA_BENCH_FULL") == "1"
		benchSet = eval.DefaultAttackSet()
		benchSet.Steps = 10
		benchBlk, benchErr = eval.BuildBlock(cfg)
	})
	if benchErr != nil {
		b.Fatalf("building benchmark block: %v", benchErr)
	}
	return benchBlk
}

// BenchmarkTable1EnclaveFootprints regenerates Table I: enclave memory cost
// and shielded portion for the paper-scale models.
func BenchmarkTable1EnclaveFootprints(b *testing.B) {
	fmt.Println("\n=== Table I — enclave memory cost (paper-scale configs, ImageNet dims) ===")
	fmt.Print(eval.RenderTable1(eval.Table1()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := eval.Table1()
		if len(rows) != 4 {
			b.Fatal("table shape")
		}
	}
}

// BenchmarkTable2AttackParameters prints the attack roster and parameters
// actually used (Table II, rescaled for the synthetic datasets).
func BenchmarkTable2AttackParameters(b *testing.B) {
	set := eval.DefaultAttackSet()
	fmt.Println("\n=== Table II — attack parameters (rescaled, see eval.AttackSet) ===")
	fmt.Printf("FGSM  ε=%.3f\n", set.Eps)
	fmt.Printf("PGD   ε=%.3f ε_step=%.4f steps=%d\n", set.Eps, set.EpsStep, set.Steps)
	fmt.Printf("MIM   ε=%.3f ε_step=%.4f µ=1.0\n", set.Eps, set.EpsStep)
	fmt.Printf("APGD  ε=%.3f N_restarts=1 ρ=0.75\n", set.Eps)
	fmt.Printf("C&W   confidence=0 step=0.010 steps=%d\n", set.Steps+10)
	fmt.Printf("SAGA  α_k=0.5 ε_step=%.4f\n", set.EpsStep)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(set.Attacks()) != 5 {
			b.Fatal("roster")
		}
	}
}

// BenchmarkTable3IndividualModels regenerates one dataset block of Table
// III (robust accuracy clear vs shielded per attack) and times a single
// shielded PGD perturbation.
func BenchmarkTable3IndividualModels(b *testing.B) {
	blk := benchBlock(b)
	tbl := eval.Table3{Dataset: blk.Name}
	for _, m := range blk.Defenders {
		row, err := eval.RunTable3Row(m, blk.Val, 16, benchSet)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	fmt.Println("\n=== Table III — robust accuracy, non-shielded vs Pelta-shielded ===")
	fmt.Print(tbl.Render())

	x, y, err := eval.SelectCorrect([]models.Model{blk.ViT}, blk.Val, 4)
	if err != nil {
		b.Fatal(err)
	}
	shield, err := eval.ShieldedOracleFor(blk.ViT, 7)
	if err != nil {
		b.Fatal(err)
	}
	pgd := &attack.PGD{Eps: benchSet.Eps, Step: benchSet.EpsStep, Steps: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgd.Perturb(shield, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4EnsembleSAGA regenerates one dataset block of Table IV
// (the SAGA grid over the four shield settings) and times one SAGA run.
func BenchmarkTable4EnsembleSAGA(b *testing.B) {
	blk := benchBlock(b)
	tbl, err := eval.RunTable4(blk.ViT, blk.BiT, blk.Val, 16, benchSet)
	if err != nil {
		b.Fatal(err)
	}
	fmt.Println("\n=== Table IV — shielded ensemble vs SAGA ===")
	fmt.Print(tbl.Render())

	x, y, err := eval.SelectCorrect([]models.Model{blk.ViT, blk.BiT}, blk.Val, 4)
	if err != nil {
		b.Fatal(err)
	}
	saga := benchSet.SAGA()
	saga.Steps = 5
	vitO := &attack.ClearOracle{M: blk.ViT}
	bitO := &attack.ClearOracle{M: blk.BiT}
	rollout := &attack.ViTRollout{V: blk.ViT}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := saga.Perturb(vitO, rollout, bitO, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAPGDClearOracle times full APGD runs (10 steps, 4 samples)
// against the clear ViT — the iterative-attack wall-clock the pooled engine
// targets.
func BenchmarkAPGDClearOracle(b *testing.B) {
	blk := benchBlock(b)
	x, y, err := eval.SelectCorrect([]models.Model{blk.ViT}, blk.Val, 4)
	if err != nil {
		b.Fatal(err)
	}
	o := &attack.ClearOracle{M: blk.ViT}
	apgd := &attack.APGD{Eps: benchSet.Eps, Steps: 10, Rho: 0.75, Restarts: 1, Seed: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apgd.Perturb(o, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Trajectories regenerates the Fig. 3 trajectory study.
func BenchmarkFig3Trajectories(b *testing.B) {
	res, err := eval.RunFig3()
	if err != nil {
		b.Fatal(err)
	}
	fmt.Println("\n=== Fig. 3 — attack geometry inside the ε-ball ===")
	fmt.Print(res.Render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Perturbations regenerates the Fig. 4 SAGA panels.
func BenchmarkFig4Perturbations(b *testing.B) {
	blk := benchBlock(b)
	set := benchSet
	set.Steps = 6
	res, err := eval.RunFig4(blk.ViT, blk.BiT, blk.Val, set)
	if err != nil {
		b.Fatal(err)
	}
	fmt.Println("\n=== Fig. 4 — SAGA sample under four shield settings ===")
	fmt.Print(res.Render())
	x := blk.Val.X.Slice(0).Reshape(1, 3, blk.Val.HW, blk.Val.HW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The per-panel primitive: one shielded inference.
		sm, err := core.NewShieldedModel(blk.ViT, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sm.Query(x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSubstituteVsUpsampling compares the two restricted
// white-box strategies of §IV-C on the same shielded ViT: the blind
// transposed-convolution upsampler vs the distilled substitute stem.
func BenchmarkAblationSubstituteVsUpsampling(b *testing.B) {
	blk := benchBlock(b)
	x, y, err := eval.SelectCorrect([]models.Model{blk.ViT}, blk.Val, 12)
	if err != nil {
		b.Fatal(err)
	}
	sm, err := core.NewShieldedModel(blk.ViT, 0)
	if err != nil {
		b.Fatal(err)
	}
	pgd := &attack.PGD{Eps: benchSet.Eps, Step: benchSet.EpsStep, Steps: 10}

	up, err := attack.NewShieldedOracle(sm, 301)
	if err != nil {
		b.Fatal(err)
	}
	xUp, err := pgd.Perturb(up, x, y)
	if err != nil {
		b.Fatal(err)
	}
	attackerIdx := make([]int, 64)
	for i := range attackerIdx {
		attackerIdx[i] = i
	}
	attackerData := blk.Train.Subset(attackerIdx)
	sub, err := attack.NewSubstituteStemOracle(sm, blk.ViT, attackerData.X, attack.DefaultSubstituteBudget())
	if err != nil {
		b.Fatal(err)
	}
	xSub, err := pgd.Perturb(sub, x, y)
	if err != nil {
		b.Fatal(err)
	}
	fmt.Println("\n=== Ablation — restricted white-box strategies vs shielded ViT ===")
	fmt.Printf("upsampling (one kernel): robust accuracy %.1f%%\n", 100*eval.RobustAccuracy(blk.ViT, xUp, y))
	fmt.Printf("distilled substitute:    robust accuracy %.1f%%\n", 100*eval.RobustAccuracy(blk.ViT, xSub, y))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sub.GradCE(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSAGAAlpha sweeps the attacker's blending weight α_k of
// Eq. 3 (Table II lists two settings) against the unshielded ensemble,
// showing how SAGA trades damage between the CNN and the ViT member.
func BenchmarkAblationSAGAAlpha(b *testing.B) {
	blk := benchBlock(b)
	x, y, err := eval.SelectCorrect([]models.Model{blk.ViT, blk.BiT}, blk.Val, 16)
	if err != nil {
		b.Fatal(err)
	}
	vitO := &attack.ClearOracle{M: blk.ViT}
	bitO := &attack.ClearOracle{M: blk.BiT}
	rollout := &attack.ViTRollout{V: blk.ViT}
	fmt.Println("\n=== Ablation — SAGA α_k sweep (unshielded ensemble) ===")
	for _, alphaK := range []float32{0.1, 0.3, 0.5, 0.7, 0.9} {
		saga := &attack.SAGA{Eps: benchSet.Eps, Step: benchSet.EpsStep, Steps: benchSet.Steps, AlphaK: alphaK}
		xadv, err := saga.Perturb(vitO, rollout, bitO, x, y)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("α_k=%.1f: ViT robust %5.1f%%, BiT robust %5.1f%%\n", alphaK,
			100*eval.RobustAccuracy(blk.ViT, xadv, y),
			100*eval.RobustAccuracy(blk.BiT, xadv, y))
	}
	xs, ys, err := eval.SelectCorrect([]models.Model{blk.ViT, blk.BiT}, blk.Val, 4)
	if err != nil {
		b.Fatal(err)
	}
	saga := &attack.SAGA{Eps: benchSet.Eps, Step: benchSet.EpsStep, Steps: 3, AlphaK: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := saga.Perturb(vitO, rollout, bitO, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNegativeControlSquare runs the black-box Square attack against
// the shielded ViT — the §II caveat: Pelta does not (and cannot) stop
// score-based black-box attacks.
func BenchmarkNegativeControlSquare(b *testing.B) {
	blk := benchBlock(b)
	x, y, err := eval.SelectCorrect([]models.Model{blk.ViT}, blk.Val, 12)
	if err != nil {
		b.Fatal(err)
	}
	sm, err := core.NewShieldedModel(blk.ViT, 0)
	if err != nil {
		b.Fatal(err)
	}
	shielded, err := attack.NewShieldedOracle(sm, 501)
	if err != nil {
		b.Fatal(err)
	}
	sq := &attack.Square{Eps: benchSet.Eps, Queries: 200, Seed: 5}
	xadv, err := sq.Perturb(shielded, x, y)
	if err != nil {
		b.Fatal(err)
	}
	fmt.Println("\n=== Negative control — black-box Square vs shielded ViT (§II) ===")
	fmt.Printf("Square (200 queries) robust accuracy: %.1f%% — the shield cannot help here\n",
		100*eval.RobustAccuracy(blk.ViT, xadv, y))
	smallSq := &attack.Square{Eps: benchSet.Eps, Queries: 10, Seed: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smallSq.Perturb(shielded, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationShieldDepth sweeps the Select depth of Algorithm 1 —
// the defender's only knob — reporting enclave bytes per depth (deeper
// shields cost more secure memory).
func BenchmarkAblationShieldDepth(b *testing.B) {
	blk := benchBlock(b)
	x := blk.Val.X.Slice(0).Reshape(1, 3, blk.Val.HW, blk.Val.HW)
	fmt.Println("\n=== Ablation — enclave bytes vs shield depth (ViT) ===")
	for depth := 1; depth <= 4; depth++ {
		g, sel := shieldPass(b, blk.ViT, x, depth)
		e, _, err := tee.NewEnclave("ablate", 0)
		if err != nil {
			b.Fatal(err)
		}
		report, err := core.Protect(g, e, sel, 1)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("depth %d: %3d vertices, %2d params, %s\n",
			depth, report.Vertices, report.Params, eval.FormatBytes(report.Bytes))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, sel := shieldPass(b, blk.ViT, x, 2)
		e, _, err := tee.NewEnclave("ablate", 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Protect(g, e, sel, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func shieldPass(b *testing.B, m models.Model, x *tensor.Tensor, depth int) (*autograd.Graph, []*autograd.Value) {
	b.Helper()
	g := autograd.NewGraph()
	in := g.Input(x, "x")
	_, logits := m.Forward(g, in)
	loss, _ := g.CrossEntropy(logits, []int{0}, autograd.ReduceSum)
	g.Backward(loss)
	return g, core.SelectDepth(g, depth)
}
