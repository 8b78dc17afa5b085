package attack

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

func TestSubstituteStemOracleDistills(t *testing.T) {
	if testing.Short() {
		t.Skip("distillation test")
	}
	m, x, y := setup(t)
	sm, err := core.NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker distills a stem on its own (unlabeled) samples.
	sub, err := NewSubstituteStemOracle(sm, m, x, DefaultSubstituteBudget())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Classes() != m.Classes() {
		t.Fatal("oracle metadata wrong")
	}
	grad, per, err := sub.GradCE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	loss := 0.0
	for _, l := range per {
		loss += l
	}
	if !grad.SameShape(x) || loss <= 0 {
		t.Fatalf("substitute gradient shape %v loss %v", grad.Shape(), loss)
	}
	// Logits still come from the real victim.
	victimLogits, err := (&ClearOracle{M: m}).Logits(x)
	if err != nil {
		t.Fatal(err)
	}
	subLogits, err := sub.Logits(x)
	if err != nil {
		t.Fatal(err)
	}
	if !subLogits.AllClose(victimLogits, 1e-4) {
		t.Fatal("substitute oracle must report the victim's observable logits")
	}
}

func TestSubstituteAttackStrongerThanUpsampling(t *testing.T) {
	if testing.Short() {
		t.Skip("distillation test")
	}
	// §IV-C: BPDA with a trained approximation is the stronger adaptive
	// attack; with enough distillation budget it should fool at least as
	// many samples as the blind upsampler (median kernel).
	m, x, y := setup(t)
	sm, err := core.NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	pgd := &PGD{Eps: 0.1, Step: 0.0125, Steps: 10}

	budget := DefaultSubstituteBudget()
	budget.Epochs = 6
	sub, err := NewSubstituteStemOracle(sm, m, x, budget)
	if err != nil {
		t.Fatal(err)
	}
	xSub, err := pgd.Perturb(sub, x, y)
	if err != nil {
		t.Fatal(err)
	}
	subRobust := robustAccuracy(t, &ClearOracle{M: m}, xSub, y)

	robusts := make([]float64, 0, 3)
	for seed := int64(101); seed <= 103; seed++ {
		up, err := NewShieldedOracle(sm, seed)
		if err != nil {
			t.Fatal(err)
		}
		xUp, err := pgd.Perturb(up, x, y)
		if err != nil {
			t.Fatal(err)
		}
		robusts = append(robusts, robustAccuracy(t, &ClearOracle{M: m}, xUp, y))
	}
	// Median upsampling robustness.
	for i := 1; i < len(robusts); i++ {
		for j := i; j > 0 && robusts[j] < robusts[j-1]; j-- {
			robusts[j], robusts[j-1] = robusts[j-1], robusts[j]
		}
	}
	upRobust := robusts[1]
	if subRobust > upRobust+0.26 {
		t.Fatalf("distilled substitute (robust %.2f) should not be weaker than blind upsampling (median %.2f)", subRobust, upRobust)
	}
	t.Logf("substitute robust=%.2f, upsampling median robust=%.2f", subRobust, upRobust)
}

func TestSubstituteRequiresSamples(t *testing.T) {
	m, _, _ := setup(t)
	sm, err := core.NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	empty := tensor.New(0, 3, 16, 16)
	if _, err := NewSubstituteStemOracle(sm, m, empty, DefaultSubstituteBudget()); err == nil {
		t.Fatal("empty attacker dataset must fail")
	}
}

func TestTargetedFGSMAndPGD(t *testing.T) {
	m, x, y := setup(t)
	o := &ClearOracle{M: m}
	// Pick a fixed wrong target class per sample.
	targets := make([]int, len(y))
	for i, yi := range y {
		targets[i] = (yi + 1) % m.Classes()
	}
	pgd := &PGD{Eps: 0.15, Step: 0.02, Steps: 15, Targeted: true}
	xadv, err := pgd.Perturb(o, x, targets)
	if err != nil {
		t.Fatal(err)
	}
	pred := models.Predict(m, xadv)
	hit := 0
	for i := range pred {
		if pred[i] == targets[i] {
			hit++
		}
	}
	if float64(hit)/float64(len(y)) < 0.5 {
		t.Fatalf("targeted PGD hit rate %d/%d too low", hit, len(y))
	}
	// Targeted FGSM should at least move some predictions toward targets
	// more often than the clean model does (clean = 0 by construction).
	fgsm := &FGSM{Eps: 0.15, Targeted: true}
	xf, err := fgsm.Perturb(o, x, targets)
	if err != nil {
		t.Fatal(err)
	}
	predF := models.Predict(m, xf)
	hitF := 0
	for i := range predF {
		if predF[i] == targets[i] {
			hitF++
		}
	}
	if hitF == 0 {
		t.Log("targeted FGSM hit nothing (acceptable for one-step), PGD covered the property")
	}
}

// The hash below was taken at the commit where distill still owned its own
// epoch loop, heap graph per batch and optimizer; distillation over the
// shared models.Trainer must reproduce it bit for bit.
func TestSubstituteDistillGoldenBits(t *testing.T) {
	const want uint64 = 1364195492393563672
	m, x, _ := setup(t)
	sm, err := core.NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubstituteStemOracle(sm, m, x, SubstituteBudget{Epochs: 2, BatchSize: 10, LR: 2e-3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [4]byte
	for _, p := range sub.substitute.Params() {
		for _, v := range p.Data.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("distilled substitute hash %d, want %d — the distillation arithmetic or batch schedule changed", got, want)
	}
}

// A zero-value budget's BatchSize 0 used to spin distill forever; it now
// means the shared trainer's default of 32.
func TestSubstituteZeroBatchBudgetReturns(t *testing.T) {
	m, x, _ := setup(t)
	sm, err := core.NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *SubstituteStemOracle, 1)
	go func() {
		sub, err := NewSubstituteStemOracle(sm, m, x, SubstituteBudget{Epochs: 1, LR: 2e-3})
		if err != nil {
			t.Error(err)
		}
		done <- sub
	}()
	select {
	case sub := <-done:
		if sub == nil {
			t.Fatal("no substitute")
		}
		for _, p := range sub.substitute.Params() {
			for _, v := range p.Data.Data() {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("distilled %s holds %v", p.Name, v)
				}
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("NewSubstituteStemOracle did not return")
	}
}
