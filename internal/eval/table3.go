package eval

import (
	"fmt"
	"strings"

	"pelta/internal/attack"
	"pelta/internal/dataset"
	"pelta/internal/models"
)

// Table3Cell holds one attack's result pair: robust accuracy without and
// with the Pelta shield (the left/right value pairs of Table III).
type Table3Cell struct {
	Attack   string
	Clear    float64
	Shielded float64
}

// Table3Row is one defender's line in Table III.
type Table3Row struct {
	Model string
	Clean float64
	Cells []Table3Cell
}

// Table3 holds one dataset block of Table III.
type Table3 struct {
	Dataset string
	Rows    []Table3Row
}

// RunTable3Row evaluates one trained defender against the five attacks in
// both settings on n astuteness samples from val.
func RunTable3Row(m models.Model, val *dataset.Dataset, n int, set AttackSet) (Table3Row, error) {
	x, y, err := SelectCorrect([]models.Model{m}, val, n)
	if err != nil {
		return Table3Row{}, fmt.Errorf("eval: %s: %w", m.Name(), err)
	}
	clearO := attack.NewClearOracle(m)
	// One shielded oracle per kernel draw.
	shieldOs := make([]attack.Oracle, KernelDraws)
	for k := range shieldOs {
		so, err := ShieldedOracleFor(m, set.Seed+int64(1000*k))
		if err != nil {
			return Table3Row{}, err
		}
		shieldOs[k] = so
	}
	row := Table3Row{Model: m.Name(), Clean: models.Accuracy(m, val.X, val.Y)}
	for _, atk := range set.Attacks() {
		cell := Table3Cell{Attack: atk.Name()}
		xc, err := atk.Perturb(clearO, x, y)
		if err != nil {
			return Table3Row{}, fmt.Errorf("eval: %s vs clear %s: %w", atk.Name(), m.Name(), err)
		}
		cell.Clear = RobustAccuracy(m, xc, y)
		robust := make([]float64, 0, KernelDraws)
		for _, so := range shieldOs {
			xs, err := atk.Perturb(so, x, y)
			if err != nil {
				return Table3Row{}, fmt.Errorf("eval: %s vs shielded %s: %w", atk.Name(), m.Name(), err)
			}
			robust = append(robust, RobustAccuracy(m, xs, y))
		}
		cell.Shielded = Quantile(robust, 0.5)
		row.Cells = append(row.Cells, cell)
	}
	return row, nil
}

// Render prints the dataset block in the paper's layout: one "clear% /
// shielded%" pair per attack, higher values favoring the defender.
func (t Table3) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s", t.Dataset)
	if len(t.Rows) > 0 {
		for _, c := range t.Rows[0].Cells {
			fmt.Fprintf(&sb, " %16s", c.Attack)
		}
		fmt.Fprintf(&sb, " %7s\n", "Clean")
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-14s", r.Model)
		for _, c := range r.Cells {
			fmt.Fprintf(&sb, "  %6.1f%% %6.1f%%", 100*c.Clear, 100*c.Shielded)
		}
		fmt.Fprintf(&sb, " %6.1f%%\n", 100*r.Clean)
	}
	return sb.String()
}
