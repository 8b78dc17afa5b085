package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pelta/internal/attack"
	"pelta/internal/dataset"
	"pelta/internal/imageio"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// Fig4Panel is one shielding setting's outcome on the probe sample.
type Fig4Panel struct {
	Setting      ShieldSetting
	PredViT      int
	PredBiT      int
	Success      bool           // did SAGA flip at least one member's prediction?
	Perturbation *tensor.Tensor // xadv − x0, [C,H,W]
	XAdv         *tensor.Tensor // [C,H,W]
}

// Fig4Result reproduces Fig. 4: one correctly classified sample attacked by
// SAGA under the four shielding settings.
type Fig4Result struct {
	Label    int
	Original *tensor.Tensor
	Panels   []Fig4Panel
}

// RunFig4 picks the first jointly correctly classified validation sample
// and runs SAGA under every shielding setting.
func RunFig4(vit *models.ViT, bit *models.BiT, val *dataset.Dataset, set AttackSet) (*Fig4Result, error) {
	x, y, err := SelectCorrect([]models.Model{vit, bit}, val, 1)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Label: y[0], Original: x.Slice(0).Clone()}
	saga := set.SAGA()
	rollout := &attack.ViTRollout{V: vit}
	for _, setting := range []ShieldSetting{ShieldNone, ShieldBiTOnly, ShieldViTOnly, ShieldBoth} {
		var vitO, bitO attack.Oracle = attack.NewClearOracle(vit), attack.NewClearOracle(bit)
		if setting == ShieldViTOnly || setting == ShieldBoth {
			so, err := ShieldedOracleFor(vit, set.Seed+int64(setting))
			if err != nil {
				return nil, err
			}
			vitO = so
		}
		if setting == ShieldBiTOnly || setting == ShieldBoth {
			so, err := ShieldedOracleFor(bit, set.Seed+20+int64(setting))
			if err != nil {
				return nil, err
			}
			bitO = so
		}
		xadv, err := saga.Perturb(vitO, rollout, bitO, x, y)
		if err != nil {
			return nil, fmt.Errorf("eval: fig4 SAGA under %s: %w", setting, err)
		}
		pv := models.Predict(vit, xadv)[0]
		pb := models.Predict(bit, xadv)[0]
		res.Panels = append(res.Panels, Fig4Panel{
			Setting:      setting,
			PredViT:      pv,
			PredBiT:      pb,
			Success:      pv != y[0] || pb != y[0],
			Perturbation: tensor.Sub(xadv.Slice(0), x.Slice(0)),
			XAdv:         xadv.Slice(0).Clone(),
		})
	}
	return res, nil
}

// Render prints the per-setting verdicts in the Fig. 4 layout.
func (r *Fig4Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 4 — SAGA adversarial sample (true class %d) under four shielding settings\n", r.Label)
	for _, p := range r.Panels {
		verdict := "failure"
		if p.Success {
			verdict = "success"
		}
		fmt.Fprintf(&sb, "%-9s ViT→%d BiT→%d  mean|δ|=%.4f  attack %s\n",
			p.Setting, p.PredViT, p.PredBiT, tensor.Mean(tensor.Abs(p.Perturbation)), verdict)
	}
	return sb.String()
}

// WriteImages dumps the original, the perturbations and the perturbed
// samples as PPM/PGM files into dir.
func (r *Fig4Result) WriteImages(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("eval: creating %s: %w", dir, err)
	}
	if err := WritePPM(filepath.Join(dir, "original.ppm"), r.Original); err != nil {
		return err
	}
	for _, p := range r.Panels {
		tag := strings.ReplaceAll(strings.ToLower(p.Setting.String()), " ", "_")
		if err := WritePPM(filepath.Join(dir, "perturbed_"+tag+".ppm"), p.XAdv); err != nil {
			return err
		}
		if err := WritePGM(filepath.Join(dir, "perturbation_"+tag+".pgm"), p.Perturbation); err != nil {
			return err
		}
	}
	return nil
}

// WritePPM saves a [3,H,W] tensor with values in [0,1] as a binary PPM.
func WritePPM(path string, img *tensor.Tensor) error { return imageio.WritePPM(path, img) }

// WritePGM saves the per-pixel magnitude of a [C,H,W] tensor as a grayscale
// PGM, normalized to the maximum (perturbations are tiny).
func WritePGM(path string, img *tensor.Tensor) error { return imageio.WritePGM(path, img) }
