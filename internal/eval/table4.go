package eval

import (
	"fmt"
	"strings"

	"pelta/internal/attack"
	"pelta/internal/dataset"
	"pelta/internal/ensemble"
	"pelta/internal/models"
)

// ShieldSetting is one Table IV column: which ensemble members carry the
// Pelta shield while SAGA attacks the pair.
type ShieldSetting int

// The four Table IV settings.
const (
	ShieldNone ShieldSetting = iota
	ShieldViTOnly
	ShieldBiTOnly
	ShieldBoth
)

// String returns the Table IV column label.
func (s ShieldSetting) String() string {
	switch s {
	case ShieldNone:
		return "None"
	case ShieldViTOnly:
		return "ViT only"
	case ShieldBiTOnly:
		return "BiT only"
	case ShieldBoth:
		return "Ensemble"
	default:
		return fmt.Sprintf("ShieldSetting(%d)", int(s))
	}
}

// Table4Column holds the per-model robust accuracies under one setting.
type Table4Column struct {
	Setting  ShieldSetting
	ViT      float64
	BiT      float64
	Ensemble float64
}

// Table4 is one dataset block of Table IV.
type Table4 struct {
	Dataset string
	// Baseline columns.
	CleanViT, CleanBiT, CleanEns    float64
	RandomViT, RandomBiT, RandomEns float64
	Columns                         []Table4Column
}

// RunTable4 runs the full SAGA grid for a trained ViT+BiT pair on n
// jointly correctly classified samples.
func RunTable4(vit *models.ViT, bit *models.BiT, val *dataset.Dataset, n int, set AttackSet) (*Table4, error) {
	x, y, err := SelectCorrect([]models.Model{vit, bit}, val, n)
	if err != nil {
		return nil, err
	}
	out := &Table4{Dataset: val.Name}
	ens := ensemble.New(&ensemble.ClearMember{M: vit}, &ensemble.ClearMember{M: bit}, set.Seed)

	// Baselines: clean accuracy and random-uniform astuteness.
	out.CleanEns, out.CleanViT, out.CleanBiT, err = ens.Accuracy(val.X, val.Y)
	if err != nil {
		return nil, err
	}
	xr, err := set.Random().Perturb(nil, x, y)
	if err != nil {
		return nil, err
	}
	out.RandomEns, out.RandomViT, out.RandomBiT, err = ens.Accuracy(xr, y)
	if err != nil {
		return nil, err
	}

	saga := set.SAGA()
	rollout := &attack.ViTRollout{V: vit}
	for _, setting := range []ShieldSetting{ShieldNone, ShieldViTOnly, ShieldBiTOnly, ShieldBoth} {
		draws := KernelDraws
		if setting == ShieldNone {
			draws = 1 // no random kernel involved
		}
		ensAcc := make([]float64, 0, draws)
		vitAcc := make([]float64, 0, draws)
		bitAcc := make([]float64, 0, draws)
		for k := 0; k < draws; k++ {
			var vitO, bitO attack.Oracle = attack.NewClearOracle(vit), attack.NewClearOracle(bit)
			if setting == ShieldViTOnly || setting == ShieldBoth {
				so, err := ShieldedOracleFor(vit, set.Seed+int64(setting)+int64(1000*k))
				if err != nil {
					return nil, err
				}
				vitO = so
			}
			if setting == ShieldBiTOnly || setting == ShieldBoth {
				so, err := ShieldedOracleFor(bit, set.Seed+10+int64(setting)+int64(1000*k))
				if err != nil {
					return nil, err
				}
				bitO = so
			}
			xadv, err := saga.Perturb(vitO, rollout, bitO, x, y)
			if err != nil {
				return nil, fmt.Errorf("eval: SAGA under %s: %w", setting, err)
			}
			e, v, bb, err := ens.Accuracy(xadv, y)
			if err != nil {
				return nil, err
			}
			ensAcc = append(ensAcc, e)
			vitAcc = append(vitAcc, v)
			bitAcc = append(bitAcc, bb)
		}
		out.Columns = append(out.Columns, Table4Column{
			Setting:  setting,
			ViT:      Quantile(vitAcc, 0.5),
			BiT:      Quantile(bitAcc, 0.5),
			Ensemble: Quantile(ensAcc, 0.5),
		})
	}
	return out, nil
}

// Render prints the block in the paper's Table IV layout.
func (t *Table4) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %8s", t.Dataset, "Clean", "Random")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, " %9s", c.Setting)
	}
	sb.WriteString("\n")
	row := func(name string, clean, random float64, pick func(Table4Column) float64) {
		fmt.Fprintf(&sb, "%-12s %7.1f%% %7.1f%%", name, 100*clean, 100*random)
		for _, c := range t.Columns {
			fmt.Fprintf(&sb, " %8.1f%%", 100*pick(c))
		}
		sb.WriteString("\n")
	}
	row("ViT", t.CleanViT, t.RandomViT, func(c Table4Column) float64 { return c.ViT })
	row("BiT", t.CleanBiT, t.RandomBiT, func(c Table4Column) float64 { return c.BiT })
	row("Ensemble", t.CleanEns, t.RandomEns, func(c Table4Column) float64 { return c.Ensemble })
	return sb.String()
}
