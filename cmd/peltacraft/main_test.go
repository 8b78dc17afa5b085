package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

func craftModel(hw int) models.Model {
	return models.NewViT(models.SmallViT("ViT-craft", 6, hw, hw/4), tensor.NewRNG(1))
}

// TestLoadOrTrain pins the checkpoint contract: a missing file trains and
// saves, an existing one loads without training, and one that fails to
// load for any other reason — here a checkpoint of a larger model — is
// reported and left byte for byte as it was.
func TestLoadOrTrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.gob")
	fits := 0
	fit := func() error { fits++; return nil }

	if err := loadOrTrain(path, craftModel(16), fit); err != nil {
		t.Fatal(err)
	}
	if err := loadOrTrain(path, craftModel(16), fit); err != nil {
		t.Fatal(err)
	}
	if fits != 1 {
		t.Fatalf("trained %d times, want once (missing file) then a load", fits)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := loadOrTrain(path, craftModel(8), fit); err == nil {
		t.Fatal("loading a 16-px checkpoint into an 8-px model must fail")
	}
	if fits != 1 {
		t.Fatal("a checkpoint that failed to load must not trigger training")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, after) {
		t.Fatal("the checkpoint that failed to load was overwritten")
	}
	if err := fl.LoadModel(path, craftModel(16)); err != nil {
		t.Fatalf("original checkpoint no longer loads: %v", err)
	}
}

// TestDumpSamplesStopsAtRows pins the dump bound: SelectCorrect may find
// fewer samples than -n asked for, and the dump writes exactly those.
func TestDumpSamplesStopsAtRows(t *testing.T) {
	dir := t.TempDir()
	x := tensor.New(2, 3, 4, 4)
	x.Fill(0.5)
	n, err := dumpSamples(dir, x, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d triplets, want 2", n)
	}
	for _, name := range []string{"clean_1.ppm", "adv_1.ppm", "delta_1.pgm"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "clean_2.ppm")); err == nil {
		t.Fatal("dumped a row past the end of x")
	}
}
