package eval

import (
	"testing"

	"pelta/internal/models"
)

func TestResNetShieldFootprint(t *testing.T) {
	fp := models.ResNet56.ShieldFootprint(853_018) // CIFAR ResNet-56 param count
	if fp.WeightBytes <= 0 || fp.ActivationBytes <= 0 {
		t.Fatalf("footprint = %+v", fp)
	}
	// The ResNet stem shield is small relative to the model.
	if fp.Portion() > 0.5 {
		t.Fatalf("portion = %v, stem shield should be a small fraction", fp.Portion())
	}
	if fp.TEEBytes() != fp.WeightBytes+fp.ActivationBytes+fp.GradientBytes {
		t.Fatal("TEEBytes must sum the components")
	}
}
