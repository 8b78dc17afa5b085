package attack

import (
	"fmt"
	"math"

	"pelta/internal/autograd"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// RolloutProvider computes the self-attention map term of SAGA (Eq. 4):
// the per-layer sum over heads of (0.5·W^(att) + 0.5·I), multiplied across
// the n_l encoder blocks, reduced to per-patch importances via the class
// token row and upsampled to the input geometry. The attention maps live in
// the clear (deep) segment of the network, so the attacker can compute the
// rollout even when the ViT's shallow layers are Pelta-shielded.
type RolloutProvider interface {
	AttentionRollout(x *tensor.Tensor) (*tensor.Tensor, error)
}

// ViTRollout reads attention maps from a ViT defender. It owns a pooled
// graph arena, so repeated rollouts are allocation-free in steady state;
// the returned map is valid until the next AttentionRollout call.
type ViTRollout struct {
	V *models.ViT

	g   *autograd.Graph
	buf *tensor.Tensor
}

var _ RolloutProvider = (*ViTRollout)(nil)

// AttentionRollout implements RolloutProvider, returning [B,C,H,W].
func (r *ViTRollout) AttentionRollout(x *tensor.Tensor) (*tensor.Tensor, error) {
	if r.g == nil {
		r.g = autograd.NewGraphWithPool(tensor.NewPool())
		r.g.SetInference(true)
	}
	r.g.Release()
	r.g.RequestRecorded(autograd.RecordAttention)
	r.V.Forward(r.g, r.g.Input(x, "x"))
	maps := r.V.AttentionMaps(r.g)
	if len(maps) == 0 {
		return nil, fmt.Errorf("attack: ViT recorded no attention maps")
	}
	if r.buf == nil || !r.buf.SameShape(x) {
		r.buf = tensor.New(x.Shape()...)
	}
	if err := RolloutFromMaps(mapData(maps), r.V.Cfg.Heads, r.buf); err != nil {
		return nil, err
	}
	return r.buf, nil
}

// RolloutFromMaps computes the SAGA attention rollout (Eq. 4) from per-block
// attention probabilities (each [B*heads, T, T]) into dst [B,C,H,W]:
// R = ∏_l [ Σ_heads (0.5·W_l + 0.5·I) ], class-token row normalized to max 1
// and nearest-neighbour-upsampled over the patch grid.
func RolloutFromMaps(maps []*tensor.Tensor, heads int, dst *tensor.Tensor) error {
	if len(maps) == 0 {
		return fmt.Errorf("attack: rollout needs at least one attention map")
	}
	b, c, h, w := dst.Dim(0), dst.Dim(1), dst.Dim(2), dst.Dim(3)
	t := maps[0].Dim(1)
	n := t - 1
	grid := int(math.Round(math.Sqrt(float64(n))))
	if grid*grid != n {
		return fmt.Errorf("attack: token count %d is not a square grid + class token", t)
	}
	// layer holds one block's head-summed map; r2 and next ping-pong the
	// running product, so the layer loop allocates nothing.
	layer, r2, next := tensor.New(t, t), tensor.New(t, t), tensor.New(t, t)
	for i := 0; i < b; i++ {
		// R = ∏_l [ Σ_heads (0.5·W_l + 0.5·I) ], starting from I.
		r2.Zero()
		for j := 0; j < t; j++ {
			r2.Data()[j*t+j] = 1
		}
		for _, m := range maps {
			layer.Zero()
			for hd := 0; hd < heads; hd++ {
				att := m.Data()[(i*heads+hd)*t*t:][:t*t] // [T,T]
				for j, v := range att {
					layer.Data()[j] += 0.5 * v
				}
			}
			for j := 0; j < t; j++ {
				layer.Data()[j*t+j] += 0.5 * float32(heads)
			}
			tensor.MatMulInto(next, layer, r2)
			r2, next = next, r2
		}
		// Class-token row → patch importances, normalized to max 1.
		row := r2.Row(0).Data()[1:]
		mx := float32(0)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		if mx == 0 {
			mx = 1
		}
		// Nearest-neighbour upsample of the patch grid to H×W.
		dsti := dst.Slice(i)
		ph, pw := h/grid, w/grid
		for y := 0; y < h; y++ {
			py := y / ph
			if py >= grid {
				py = grid - 1
			}
			for xx := 0; xx < w; xx++ {
				px := xx / pw
				if px >= grid {
					px = grid - 1
				}
				v := row[py*grid+px] / mx
				for ch := 0; ch < c; ch++ {
					dsti.Data()[ch*h*w+y*w+xx] = v
				}
			}
		}
	}
	return nil
}

// SAGA is the Self-Attention Gradient Attack [44] against a ViT+CNN
// ensemble (Eq. 2-4): a sign attack on the blended gradient
// G = α_k·∂L_k/∂x + α_v·ϕ_v ⊙ ∂L_v/∂x with ϕ_v the attention rollout
// modulated by the current image.
type SAGA struct {
	Eps    float32
	Step   float32 // ε_step in Table II
	Steps  int
	AlphaK float32 // CNN weight; the ViT weight is α_v = 1 − α_k
}

// Name returns the attack label.
func (a *SAGA) Name() string { return "SAGA" }

// Perturb runs the attack. vit and cnn answer gradient queries for the two
// ensemble members (either may be shielded); rollout provides ϕ_v. When the
// ViT oracle can serve the rollout from its own gradient pass
// (RolloutGradOracle), the separate rollout forward is skipped entirely.
func (a *SAGA) Perturb(vit Oracle, rollout RolloutProvider, cnn Oracle, x *tensor.Tensor, y []int) (*tensor.Tensor, error) {
	if err := checkBatch(x, y); err != nil {
		return nil, err
	}
	fused, _ := vit.(RolloutGradOracle)
	if fused != nil && !fused.CanRollout() {
		fused = nil
	}
	alphaV := 1 - a.AlphaK
	xadv := x.Clone()
	blend := tensor.New(x.Shape()...)
	phiBuf := tensor.New(x.Shape()...)
	for k := 0; k < a.Steps; k++ {
		gradK, _, err := cnn.GradCE(xadv, y)
		if err != nil {
			return nil, fmt.Errorf("attack: SAGA CNN gradient: %w", err)
		}
		// gradK is only valid until the next cnn query; blending consumes it
		// immediately, so stage it into the blend buffer first.
		tensor.ScaleInto(blend, gradK, a.AlphaK)

		var gradV, phi *tensor.Tensor
		if fused != nil {
			gradV, phi, _, err = fused.GradCERollout(xadv, y)
			if err != nil {
				return nil, fmt.Errorf("attack: SAGA ViT gradient+rollout: %w", err)
			}
		} else {
			gradV, _, err = vit.GradCE(xadv, y)
			if err != nil {
				return nil, fmt.Errorf("attack: SAGA ViT gradient: %w", err)
			}
			phi, err = rollout.AttentionRollout(xadv)
			if err != nil {
				return nil, fmt.Errorf("attack: SAGA rollout: %w", err)
			}
		}
		// ϕ_v = rollout ⊙ x^(i)  (Eq. 4), then G_blend (Eq. 3). phi may be
		// an oracle-owned buffer, so modulate into a private copy.
		tensor.MulInto(phiBuf, phi, xadv)
		pd, gv, bd := phiBuf.Data(), gradV.Data(), blend.Data()
		for i := range bd {
			bd[i] += alphaV * pd[i] * gv[i]
		}
		addSignStep(xadv, blend, a.Step)
		projectLinf(xadv, x, a.Eps)
	}
	return xadv, nil
}

// SelfSAGA adapts the ensemble SAGA attack to the single-defender Attack
// interface: the one oracle serves both ensemble roles (α_k weighs the
// plain CE gradient, α_v the rollout-modulated one). This is the probe a
// compromised federated client runs when its device holds a single ViT —
// the attention-rollout term still reshapes the perturbation even without
// a second ensemble member.
type SelfSAGA struct {
	SAGA
	// Rollout supplies ϕ_v when the oracle cannot serve fused rollouts.
	// A shielded ViT needs it: the attention maps live in the clear deep
	// segment, so the attacker computes the rollout from the model directly
	// while gradient queries go through the restricted oracle.
	Rollout RolloutProvider
}

var _ Attack = (*SelfSAGA)(nil)

// Name returns the attack label.
func (a *SelfSAGA) Name() string { return "SAGA" }

// Perturb implements Attack by running SAGA with o as both members.
func (a *SelfSAGA) Perturb(o Oracle, x *tensor.Tensor, y []int) (*tensor.Tensor, error) {
	if a.Rollout == nil {
		rg, ok := o.(RolloutGradOracle)
		if !ok || !rg.CanRollout() {
			return nil, fmt.Errorf("attack: SelfSAGA on %s needs a RolloutProvider (oracle cannot serve rollouts)", o.Name())
		}
	}
	return a.SAGA.Perturb(o, a.Rollout, o, x, y)
}
