package autograd

import (
	"strings"
	"testing"

	"pelta/internal/tensor"
)

// everyOp builds one vertex of every op of the package on g, from fixed
// seeded operands, and returns them in a fixed order.
func everyOp(g *Graph, params []*Param) []*Value {
	rng := tensor.NewRNG(31)
	seq := g.Input(rng.Normal(0, 1, 2, 5, 8), "seq")      // [B,T,D]
	img := g.Input(rng.Normal(0, 1, 2, 4, 6, 6), "img")   // [B,C,H,W]
	sq := g.Const(rng.Normal(0, 1, 2, 8, 5), "sq")        // [G,k,n] for BMM
	qkv := g.Const(rng.Normal(0, 1, 4, 5, 3), "qkv")      // [G,T,dh]
	mat := g.Const(rng.Normal(0, 1, 8, 3), "mat")         // [k,n]
	logits := g.Const(rng.Normal(0, 1, 2, 7), "logits")   // [B,C]
	ref := rng.Normal(0, 1, 2, 5, 8)                      // SqDistSum reference
	patches := g.Const(rng.Normal(0, 1, 2, 9, 16), "pat") // [B,N,C*p*p]
	p := func(i int) *Value { return g.Param(params[i]) }
	labels := []int{3, 0}

	ce, _ := g.CrossEntropy(logits, labels, ReduceMean)
	return []*Value{
		g.Add(seq, seq),
		g.Sub(seq, g.Scale(seq, 0.5)),
		g.Mul(seq, seq),
		g.Scale(seq, -1.5),
		g.AddBroadcast(seq, p(0)),
		g.MatMul(g.Reshape(seq, 10, 8), mat),
		g.Linear(seq, p(1), p(2)),
		g.Linear(seq, p(1), nil),
		g.BMM(seq, sq),
		g.ReLU(seq),
		g.GELU(seq),
		g.Tanh(seq),
		g.Affine(seq, 2, -1),
		g.SoftmaxLastDim(seq),
		g.Sum(seq),
		g.Mean(seq),
		g.Reshape(seq, -1, 4, 2),
		g.Permute(g.Reshape(seq, 2, 5, 2, 4), 0, 2, 1, 3),
		g.Permute(seq, 0, 2, 1),
		g.Permute(seq, 2, 0, 1),
		g.PrependToken(seq, p(3)),
		g.TakeToken(seq, 2),
		g.Patchify(img, 2),
		g.Unpatchify(patches, 4, 6, 6, 2),
		g.Conv2d(img, p(4), p(5), 1, 1),
		g.WSConv2d(img, p(4), nil, 2, 1),
		g.Pad2d(img, 1),
		g.MaxPool2d(img, 2, 2),
		g.AvgPoolGlobal(img),
		g.LayerNorm(seq, p(6), p(7)),
		g.BatchNorm2d(img, p(8), p(9), NewBatchNormState(4, 0.1), false),
		g.GroupNorm2d(img, p(8), p(9), 2),
		g.FusedAttention(qkv, qkv, qkv, 0.5),
		ce,
		g.CWMargin(logits, labels, 0.1),
		g.SqDistSum(seq, ref),
	}
}

func everyOpParams() []*Param {
	rng := tensor.NewRNG(32)
	return []*Param{
		NewParam("pos", rng.Normal(0, 1, 5, 8)),
		NewParam("w", rng.Normal(0, 1, 6, 8)),
		NewParam("b", rng.Normal(0, 1, 6)),
		NewParam("tok", rng.Normal(0, 1, 8)),
		NewParam("cw", rng.Normal(0, 1, 3, 4, 3, 3)),
		NewParam("cb", rng.Normal(0, 1, 3)),
		NewParam("ln.g", rng.Normal(1, 0.1, 8)),
		NewParam("ln.b", rng.Normal(0, 0.1, 8)),
		NewParam("n.g", rng.Normal(1, 0.1, 4)),
		NewParam("n.b", rng.Normal(0, 0.1, 4)),
	}
}

// TestInferenceIdentityEveryOp is the op-level contract of inference mode:
// every op computes the same bits as on the taped pass, records the same
// vertex (op label, parents) and no backward closure, and gives parameter
// leaves no gradient — on a heap graph and on an arena across Release
// cycles, where the pass must also stop drawing fresh buffers.
func TestInferenceIdentityEveryOp(t *testing.T) {
	params := everyOpParams()
	taped := NewGraph()
	want := everyOp(taped, params)

	check := func(name string, g *Graph) {
		t.Helper()
		got := everyOp(g, params)
		if len(got) != len(want) || g.Len() != taped.Len() {
			t.Fatalf("%s: %d vertices, taped pass has %d", name, g.Len(), taped.Len())
		}
		for i, v := range got {
			w := want[i]
			if v.Op() != w.Op() || len(v.Parents()) != len(w.Parents()) {
				t.Errorf("%s: vertex %d is %s with %d parents, taped %s with %d",
					name, i, v.Op(), len(v.Parents()), w.Op(), len(w.Parents()))
			}
			if !v.Data.SameShape(w.Data) || bitsHash(v.Data) != bitsHash(w.Data) {
				t.Errorf("%s: %s differs from the taped pass", name, v.Op())
			}
			if v.backward != nil {
				t.Errorf("%s: %s recorded a backward closure", name, v.Op())
			}
			if w.backward == nil {
				t.Errorf("taped %s recorded no backward closure", w.Op())
			}
		}
		for _, v := range g.Nodes() {
			if v.Param() != nil && v.Grad != nil {
				t.Errorf("%s: parameter leaf %s carries a gradient", name, v.Name())
			}
		}
	}

	heap := NewGraph()
	heap.SetInference(true)
	check("heap", heap)

	pool := tensor.NewPool()
	arena := NewGraphWithPool(pool)
	arena.SetInference(true)
	for pass := 0; pass < 3; pass++ {
		arena.Release()
		check("arena", arena)
	}
	before := pool.Stats().Misses
	arena.Release()
	check("arena", arena)
	if misses := pool.Stats().Misses - before; misses != 0 {
		t.Errorf("warm inference pass drew %d fresh buffers", misses)
	}
}

// TestBackwardOnInferencePassPanics: a pass without a tape must refuse to
// differentiate, naming the mode, rather than return silently empty
// gradients; so must a mode switch in the middle of a pass.
func TestBackwardOnInferencePassPanics(t *testing.T) {
	mustPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}()
		f()
	}
	g := NewGraph()
	g.SetInference(true)
	loss := g.Sum(g.Input(tensor.Ones(2, 2), "x"))
	mustPanic("inference-mode pass", func() { g.Backward(loss) })
	mustPanic("middle of a pass", func() { g.SetInference(false) })

	// After Release the same graph tapes again.
	g.Release()
	g.SetInference(false)
	in := g.Input(tensor.Ones(2, 2), "x")
	g.Backward(g.Sum(in))
	if in.Grad == nil || in.Grad.Data()[0] != 1 {
		t.Fatal("taped pass after an inference pass produced no gradient")
	}
}
