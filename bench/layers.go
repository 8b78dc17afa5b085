package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"pelta/internal/attack"
	"pelta/internal/core"
	"pelta/internal/detect"
	"pelta/internal/eval"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/serve"
	"pelta/internal/tee"
	"pelta/internal/tensor"
)

// timeMs runs f reps times after one warm call and returns the median
// duration in milliseconds.
func timeMs(reps int, f func()) float64 {
	f()
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0)) / 1e6
	}
	return eval.Quantile(d, 0.5)
}

// directLayers times direct calls into the public functions of each layer,
// on the fixture's shapes. They do not depend on the workload; they are the
// numbers a layer's own optimisation moves first.
func directLayers(fx *fixture) (map[string]float64, error) {
	m := map[string]float64{}
	reps := fx.reps
	rng := tensor.NewRNG(fx.seed)
	pool := tensor.NewPool()

	// tensor: the square kernel the repo's ledger has always quoted, with
	// and without the worker pool, and the model's own largest matmul.
	a, b, c := rng.Uniform(-1, 1, 256, 256), rng.Uniform(-1, 1, 256, 256), tensor.New(256, 256)
	gflops := func(flop float64, ms float64) float64 { return flop / (ms * 1e6) }
	m["tensor.matmul256_gflops"] = gflops(2*256*256*256, timeMs(reps(15), func() { tensor.MatMulInto(c, a, b) }))
	prev := tensor.SetKernelWorkers(1)
	m["tensor.matmul256_gflops_w1"] = gflops(2*256*256*256, timeMs(reps(15), func() { tensor.MatMulInto(c, a, b) }))
	tensor.SetKernelWorkers(prev)
	m["tensor.parallel_speedup"] = m["tensor.matmul256_gflops"] / m["tensor.matmul256_gflops_w1"]
	cfg := fx.model.Cfg
	rows := pgdBatch * cfg.Tokens()
	ma, mb, mc := rng.Uniform(-1, 1, rows, cfg.Dim), rng.Uniform(-1, 1, cfg.Dim, cfg.MLPDim), tensor.New(rows, cfg.MLPDim)
	m["tensor.matmul_model_gflops"] = gflops(2*float64(rows*cfg.Dim*cfg.MLPDim), timeMs(reps(200), func() { tensor.MatMulInto(mc, ma, mb) }))

	g, t, dh := pgdBatch*cfg.Heads, cfg.Tokens(), cfg.Dim/cfg.Heads
	q, k, v := rng.Uniform(-1, 1, g, t, dh), rng.Uniform(-1, 1, g, t, dh), rng.Uniform(-1, 1, g, t, dh)
	out, gy := tensor.New(g, t, dh), rng.Uniform(-1, 1, g, t, dh)
	gq, gk, gv := tensor.New(g, t, dh), tensor.New(g, t, dh), tensor.New(g, t, dh)
	scaleQK := float32(1 / math.Sqrt(float64(dh)))
	m["tensor.attention_fwd_us"] = 1e3 * timeMs(reps(200), func() { tensor.FusedAttentionInto(pool, out, q, k, v, scaleQK) })
	m["tensor.attention_bwd_us"] = 1e3 * timeMs(reps(200), func() {
		gk.Zero()
		gv.Zero()
		tensor.FusedAttentionBackwardInto(pool, gq, gk, gv, q, k, v, gy, scaleQK)
	})
	// The shielded attacker's upsampling: token grid [B,D,4,4] to [B,3,16,16].
	grid := imageHW / cfg.Patch
	xt, wt := rng.Uniform(-1, 1, pgdBatch, cfg.Dim, grid, grid), rng.Uniform(-1, 1, cfg.Dim, 3, cfg.Patch, cfg.Patch)
	up := tensor.New(pgdBatch, 3, imageHW, imageHW)
	m["tensor.convtranspose2d_us"] = 1e3 * timeMs(reps(200), func() { tensor.ConvTranspose2dInto(pool, up, xt, wt, cfg.Patch, 0) })

	// autograd and models: a forward, a forward with input gradient, a
	// training step, on a private copy of the defender.
	mdl, err := fx.copyModel(0)
	if err != nil {
		return nil, err
	}
	x8, y8 := fx.val.X.SliceRange(0, pgdBatch), fx.val.Y[:pgdBatch]
	x1 := fx.val.X.SliceRange(0, 1)
	m["autograd.forward_ms_b8"] = timeMs(reps(60), func() { models.Logits(mdl, x8) })
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < reps(20); i++ {
		models.Logits(mdl, x8)
	}
	runtime.ReadMemStats(&ms1)
	m["autograd.allocs_per_forward"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(reps(20))
	clear := attack.NewClearOracle(mdl)
	var gerr error
	m["autograd.fwdbwd_ms_b8"] = timeMs(reps(40), func() { _, _, gerr = clear.GradCE(x8, y8) })
	if gerr != nil {
		return nil, gerr
	}
	for _, p := range mdl.Params() {
		m["models.params"] += float64(p.Data.Len())
	}
	trainM, err := fx.copyModel(1)
	if err != nil {
		return nil, err
	}
	x64, y64 := fx.train.X.SliceRange(0, 64), fx.train.Y[:64]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: fx.sz.lr, Seed: fx.seed}
	var terr error
	m["models.train_step_ms_b16"] = timeMs(reps(6), func() { _, terr = models.Train(trainM, x64, y64, tc) }) / 4
	if terr != nil {
		return nil, terr
	}

	// tee: one store, load and flush of a z0-shaped tensor.
	enc, tok, err := tee.NewEnclave("bench", 0)
	if err != nil {
		return nil, err
	}
	z0 := rng.Uniform(-1, 1, pgdBatch, cfg.Tokens(), cfg.Dim)
	m["tee.store_load_us"] = 1e3 * timeMs(reps(200), func() {
		if err == nil {
			err = enc.Store("z0", z0)
		}
		if err == nil {
			_, err = enc.Load(tok, "z0")
		}
		if err == nil {
			err = enc.Flush(tok, "z0")
		}
	})
	if err != nil {
		return nil, fmt.Errorf("enclave store/load: %w", err)
	}

	// core: shielded inference at the two batch sizes serving uses, and the
	// shielded gradient query the attacker issues.
	sm, err := core.NewShieldedModel(mdl, 0)
	if err != nil {
		return nil, err
	}
	query := func(x *tensor.Tensor, loss core.LossFn) func() {
		return func() {
			if err == nil {
				_, err = sm.Query(x, loss)
			}
		}
	}
	m["core.query_ms_b1"] = timeMs(reps(60), query(x1, nil))
	m["core.query_ms_b8"] = timeMs(reps(60), query(x8, nil))
	m["core.query_grad_ms_b8"] = timeMs(reps(40), query(x8, core.CrossEntropyLoss(y8)))
	if err != nil {
		return nil, fmt.Errorf("shielded query: %w", err)
	}
	m["core.shield_overhead_frac"] = m["core.query_ms_b8"]/m["autograd.forward_ms_b8"] - 1

	// detect: one Observe against a full ring, at the default window and at
	// one sixteen times larger; the flat k-NN scan is linear in the window.
	for _, w := range []int{64, 1024} {
		det := detect.New(detect.Config{Window: w})
		now := time.Unix(0, 0)
		for i := 0; i < w; i++ {
			det.Observe("c", fx.val.X.Slice(i%fx.val.Len()), now)
		}
		i := 0
		m[fmt.Sprintf("detect.observe_us_w%d", w)] = 1e3 * timeMs(reps(200), func() {
			det.Observe("c", fx.val.X.Slice(i%fx.val.Len()), now)
			i++
		})
	}

	// fl: one snapshot and apply of the global weights.
	m["fl.snapshot_apply_us"] = 1e3 * timeMs(reps(50), func() {
		if err == nil {
			err = fl.Apply(trainM, fl.Snapshot(trainM))
		}
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// reps scales a direct-call repetition count to the sizing.
func (fx *fixture) reps(n int) int { return max(3, int(float64(n)*fx.sz.directScale)) }

// codecPerLine replays request bytes and a response through encoding/json
// the way the /query handler does and returns microseconds per line.
func codecPerLine(body []byte, reps int) (float64, error) {
	lines := bytes.Count(body, []byte{'\n'})
	var err error
	ms := timeMs(reps, func() {
		for _, line := range bytes.Split(body, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			var q serve.QueryRequest
			if e := json.Unmarshal(line, &q); e != nil {
				err = e
			}
			if _, e := json.Marshal(serve.QueryResponse{Class: 3, Ms: 1.25, Batch: 8}); e != nil {
				err = e
			}
		}
	})
	return 1e3 * ms / float64(lines), err
}
