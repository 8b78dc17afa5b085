package eval

import (
	"fmt"

	"pelta/internal/attack"
	"pelta/internal/core"
	"pelta/internal/dataset"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// SelectCorrect returns up to n samples of d that every model in ms
// classifies correctly — the astuteness protocol selects only correctly
// classified samples so clean robust accuracy starts at 100%.
func SelectCorrect(ms []models.Model, d *dataset.Dataset, n int) (*tensor.Tensor, []int, error) {
	preds := make([][]int, len(ms))
	for i, m := range ms {
		preds[i] = models.Predict(m, d.X)
	}
	var idx []int
	for i := 0; i < d.Len() && len(idx) < n; i++ {
		ok := true
		for _, p := range preds {
			if p[i] != d.Y[i] {
				ok = false
				break
			}
		}
		if ok {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil, nil, fmt.Errorf("eval: no jointly correct samples (weak defenders)")
	}
	sub := d.Subset(idx)
	return sub.X, sub.Y, nil
}

// RobustAccuracy scores the defender on the perturbed batch: the fraction
// still classified as the true label.
func RobustAccuracy(m models.Model, xadv *tensor.Tensor, y []int) float64 {
	return models.Accuracy(m, xadv, y)
}

// AttackSet builds the Table II attack roster for a given ε budget. The ε
// values are rescaled relative to the paper (0.031/0.062) because the
// synthetic datasets have wider class margins.
type AttackSet struct {
	Eps     float32
	EpsStep float32
	Steps   int
	Seed    int64
}

// DefaultAttackSet mirrors Table II proportions at ε = 0.1.
func DefaultAttackSet() AttackSet {
	return AttackSet{Eps: 0.1, EpsStep: 0.0125, Steps: 20, Seed: 1}
}

// Attacks instantiates the five individual-model attacks of Table III.
func (s AttackSet) Attacks() []attack.Attack {
	return []attack.Attack{
		&attack.FGSM{Eps: s.Eps},
		&attack.PGD{Eps: s.Eps, Step: s.EpsStep, Steps: s.Steps},
		&attack.MIM{Eps: s.Eps, Step: s.EpsStep, Steps: s.Steps, Mu: 1.0},
		&attack.CW{Confidence: 0, Step: 0.01, Steps: s.Steps + 10, C: 0.05},
		&attack.APGD{Eps: s.Eps, Steps: s.Steps, Rho: 0.75, Restarts: 1, Seed: s.Seed},
	}
}

// SAGA instantiates the ensemble attack of Table IV.
func (s AttackSet) SAGA() *attack.SAGA {
	return &attack.SAGA{Eps: s.Eps, Step: s.EpsStep, Steps: s.Steps, AlphaK: 0.5}
}

// Random instantiates the Table IV random-uniform baseline.
func (s AttackSet) Random() *attack.RandomUniform {
	return &attack.RandomUniform{Eps: s.Eps, Seed: s.Seed}
}

// KernelDraws is the number of random upsampling kernels sampled when
// evaluating shielded attacks. At paper scale (768-dimensional patches) the
// behaviour of the random kernel concentrates and one draw is typical; at
// this reproduction's reduced scale a single kernel occasionally aligns
// with the true backward operator by chance, so the harness reports the
// median robust accuracy over several draws.
const KernelDraws = 3

// ShieldedOracleFor shields m in a fresh enclave and returns the attacker's
// gradient oracle through it; seed draws its random upsampling kernel.
func ShieldedOracleFor(m models.Model, seed int64) (attack.Oracle, error) {
	sm, err := core.NewShieldedModel(m, 0)
	if err != nil {
		return nil, fmt.Errorf("eval: shielding %s: %w", m.Name(), err)
	}
	so, err := attack.NewShieldedOracle(sm, seed)
	if err != nil {
		return nil, fmt.Errorf("eval: building shielded oracle for %s: %w", m.Name(), err)
	}
	return so, nil
}
