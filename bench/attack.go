package main

import (
	"fmt"
	"time"

	"pelta/internal/attack"
	"pelta/internal/core"
	"pelta/internal/eval"
	"pelta/internal/models"
	"pelta/internal/obs"
	"pelta/internal/tensor"
)

// The adversary's loop of §V: l∞ PGD, ten steps, on batches of eight.
const (
	pgdEps   = 0.06
	pgdStep  = 0.0075
	pgdSteps = 10
)

// Robust-accuracy gates on the attacked (all correctly classified) samples:
// the clear attack must break at least half of them and the shield must keep
// most. They guard against timing a model too weak to attack or a shield
// that hides nothing; seeds 1–16 gave ≤ 0.16 and ≥ 0.80 (README, "Sizing").
const (
	clearRobustMax    = 0.5
	shieldedRobustMin = 0.7
)

// hookKernels installs a kernel-boundary hook that sums time per kernel
// family, and returns the sums and the function that removes the hook.
func hookKernels() (*obs.KernelStats, func()) {
	ks := &obs.KernelStats{}
	tensor.SetKernelHook(&tensor.KernelHook{
		Now:     time.Now,
		Observe: func(op tensor.KernelOp, d time.Duration) { ks.Add(int(op), d.Nanoseconds()) },
	})
	return ks, func() { tensor.SetKernelHook(nil) }
}

// tracedOracle records a span around every gradient query, under the
// Perturb call that issued it.
type tracedOracle struct {
	attack.Oracle
	tr     *tracer
	parent uint64
}

func (o *tracedOracle) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	id, t0 := o.tr.begin()
	g, per, err := o.Oracle.GradCE(x, y)
	o.tr.record(span{ID: id, Parent: o.parent, Req: o.parent, Layer: "core", Name: "oracle.grad", Start: t0})
	return g, per, err
}

// attackEnv is one attacker: a PGD loop over batches of correctly
// classified validation samples against a clear or a shielded oracle.
type attackEnv struct {
	fx       *fixture
	tr       *tracer
	shielded bool
	// inner is the oracle itself; oracle is what the measured loop calls,
	// which on a traced pass is inner wrapped. Warm-up and checks use inner,
	// so every recorded span belongs to the measured section.
	inner, oracle attack.Oracle
	traced        *tracedOracle
	sm            *core.ShieldedModel
	pgd           *attack.PGD
	xs            []*tensor.Tensor
	ys            [][]int
	cursor        int

	kernels *obs.KernelStats
	c0, c1  counters
	robust  float64
}

// countersNow reads the shielded oracle's enclave counters (zero when
// clear) and, on a traced pass, the kernel hook's totals.
func (e *attackEnv) countersNow() counters {
	var c counters
	if e.sm != nil {
		t := e.sm.Enclave().Metrics()
		c.switches, c.bytes = float64(t.WorldSwitches), float64(t.BytesIn+t.BytesOut)
	}
	if e.kernels != nil {
		c.kernelNS = e.kernels.SnapshotNS()
	}
	return c
}

func buildAttack(fx *fixture, tr *tracer, shielded bool) (*attackEnv, error) {
	e := &attackEnv{fx: fx, tr: tr, shielded: shielded,
		pgd: &attack.PGD{Eps: pgdEps, Step: pgdStep, Steps: pgdSteps}}
	m, err := fx.copyModel(0)
	if err != nil {
		return nil, err
	}
	if shielded {
		if e.sm, err = core.NewShieldedModel(m, 0); err != nil {
			return nil, err
		}
		if e.inner, err = attack.NewShieldedOracle(e.sm, fx.seed+seedAttack); err != nil {
			return nil, err
		}
	} else {
		e.inner = attack.NewClearOracle(m)
	}
	e.oracle = e.inner
	if tr != nil {
		e.traced = &tracedOracle{Oracle: e.inner, tr: tr}
		e.oracle = e.traced
	}

	// Astuteness protocol: only samples the defender classifies correctly
	// are attacked, in seeded order.
	var ok []int
	for _, i := range tensor.NewRNG(fx.seed + seedTraffic).Perm(fx.val.Len()) {
		if fx.refClass[i] == fx.val.Y[i] {
			ok = append(ok, i)
		}
	}
	for at := 0; at+pgdBatch <= len(ok); at += pgdBatch {
		sub := fx.val.Subset(ok[at : at+pgdBatch])
		e.xs, e.ys = append(e.xs, sub.X), append(e.ys, sub.Y)
	}
	if len(e.xs) == 0 {
		return nil, fmt.Errorf("the defender classifies fewer than %d validation samples correctly", pgdBatch)
	}
	// One warm call sizes the oracle's arena before the measured section.
	if _, err := e.pgd.Perturb(e.inner, e.xs[0], e.ys[0]); err != nil {
		return nil, fmt.Errorf("warm-up attack: %w", err)
	}
	return e, nil
}

func (e *attackEnv) close() {}

// run repeats the attack on successive batches for d, then checks every
// adversarial batch it produced.
func (e *attackEnv) run(d time.Duration) (*pass, error) {
	type result struct {
		batch int
		xadv  *tensor.Tensor
	}
	var results []result
	if e.tr != nil {
		var unhook func()
		e.kernels, unhook = hookKernels()
		defer unhook()
	}
	e.c0 = e.countersNow()
	p, err := measure(d, func(r *recorder, p *pass) error {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			b := e.cursor % len(e.xs)
			e.cursor++
			id, t0 := e.tr.begin()
			if e.traced != nil {
				e.traced.parent = id
			}
			start := time.Now()
			xadv, err := e.pgd.Perturb(e.oracle, e.xs[b], e.ys[b])
			end := time.Now()
			e.tr.record(span{ID: id, Req: id, Layer: "attack", Name: "attack.perturb", Start: t0})
			r.op(start, end, float64(end.Sub(start))/1e6/pgdSteps, pgdSteps)
			p.Attempted++
			if err != nil {
				p.Failed++
				continue
			}
			results = append(results, result{b, xadv})
		}
		return nil
	})
	e.c1 = e.countersNow()
	if err != nil {
		return nil, err
	}

	held, total := 0, 0
	for _, res := range results {
		x0, xa := e.xs[res.batch].Data(), res.xadv.Data()
		for i, v := range xa {
			if v < 0 || v > 1 || v < x0[i]-pgdEps-1e-6 || v > x0[i]+pgdEps+1e-6 {
				p.wrong(fmt.Sprintf("batch %d: adversarial pixel %d = %g leaves the ε-ball or [0,1] (clean %g)", res.batch, i, v, x0[i]))
				break
			}
		}
		for i, c := range models.Predict(e.fx.model, res.xadv) {
			total++
			if c == e.ys[res.batch][i] {
				held++
			}
		}
	}
	if total > 0 {
		e.robust = float64(held) / float64(total)
		p.note("robust_acc", e.robust)
		if e.fx.sz.gates {
			if !e.shielded && e.robust > clearRobustMax {
				p.wrong(fmt.Sprintf("clear PGD left robust accuracy %.2f, above %.2f: the attack is not working", e.robust, clearRobustMax))
			}
			if e.shielded && e.robust < shieldedRobustMin {
				p.wrong(fmt.Sprintf("shielded PGD left robust accuracy %.2f, below %.2f: the shield is not working", e.robust, shieldedRobustMin))
			}
		}
	}
	// The same inputs must give the same bytes: repeat the first call.
	if len(results) > 0 {
		first := results[0]
		again, err := e.pgd.Perturb(e.inner, e.xs[first.batch], e.ys[first.batch])
		if err != nil {
			p.wrong("repeating the first attack call: " + err.Error())
		} else if !sameBits(again.Data(), first.xadv.Data()) {
			p.wrong(fmt.Sprintf("batch %d: two identical attack calls returned different bytes", first.batch))
		}
	}
	return p, nil
}

// layers attributes the traced pass: gradient queries are the oracle spans,
// the attack's own arithmetic is what a Perturb span does not spend in them.
func (e *attackEnv) layers(p *pass, spans []span) (map[string]float64, error) {
	m := map[string]float64{}
	grads, perturbs := named(spans, "oracle.grad"), named(spans, "attack.perturb")
	if len(grads) == 0 || len(perturbs) == 0 {
		return nil, fmt.Errorf("traced attack recorded %d oracle and %d perturb spans", len(grads), len(perturbs))
	}
	self := selfTimes(spans)
	var stepSelf []float64
	var compute int64
	for _, s := range perturbs {
		stepSelf = append(stepSelf, float64(self[s.ID])/1e6/pgdSteps)
	}
	for _, s := range grads {
		compute += s.dur()
	}
	m["attack.grad_ms"] = eval.Quantile(durationsMs(grads), 0.5)
	m["attack.step_self_ms"] = eval.Quantile(stepSelf, 0.5)
	m["attack.robust_acc"] = e.robust
	m["attack.queries"] = float64(len(grads))
	kernelFracs(m, e.c0.kernelNS, e.c1.kernelNS, compute)
	if e.sm != nil {
		m["tee.world_switches_per_query"] = (e.c1.switches - e.c0.switches) / float64(len(grads))
		m["tee.bytes_per_query"] = (e.c1.bytes - e.c0.bytes) / float64(len(grads))
		m["tee.enclave_bytes"] = float64(e.sm.Enclave().Used())
	}
	return m, nil
}
