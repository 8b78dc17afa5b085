package fl

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pelta/internal/models"
	"pelta/internal/tensor"
)

// tinyModel is the fixed 26-weight ViT the checkpoint fuzzer applies to.
func tinyModel() models.Model {
	cfg := models.ViTConfig{Name: "tiny", InputC: 1, InputHW: 2, Patch: 2, Dim: 2, Heads: 1, MLPDim: 2, Classes: 2}
	return models.NewViT(cfg, tensor.NewRNG(1))
}

// FuzzLoadCheckpoint writes arbitrary bytes as a checkpoint file, loads it
// and applies it to tinyModel. Neither step may panic, and a snapshot Apply
// accepts leaves every parameter finite and equal to it. The seed corpus
// (testdata/fuzz/FuzzLoadCheckpoint) holds a stamped and a legacy
// checkpoint, an empty and a truncated file, short Names and a NaN weight.
func FuzzLoadCheckpoint(f *testing.F) {
	m := tinyModel()
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, buf []byte) {
		if err := os.WriteFile(path, buf, 0o600); err != nil {
			t.Fatal(err)
		}
		w, _, err := LoadCheckpoint(path)
		if err != nil || Apply(m, w) != nil {
			return
		}
		for i, p := range m.Params() {
			for j, v := range p.Data.Data() {
				if fv := float64(v); math.IsNaN(fv) || math.IsInf(fv, 0) || v != w.Data[i][j] {
					t.Fatalf("applied %s[%d] = %v, snapshot holds %v", p.Name, j, v, w.Data[i][j])
				}
			}
		}
	})
}
