// Package attack implements the six white-box evasion attacks of the
// paper's evaluation — FGSM, PGD, MIM, APGD, C&W and SAGA — plus the
// random-uniform baseline, against both clear models (full white-box) and
// Pelta-shielded models (restricted white-box).
//
// Attacks consume a gradient Oracle. The clear oracle returns the true
// ∇xL; the shielded oracle can only observe the adjoint δ_{L+1} of the
// shallowest clear layer and substitutes a BPDA-style transposed-convolution
// upsampling for the masked shallow backward (§IV-C, §V-B).
//
// Oracles run on the pooled execution engine: each oracle owns a
// tensor.Pool-backed graph arena that is recycled wholesale between queries,
// so the hundreds of gradient queries of an iterative attack are
// allocation-free in steady state. The price of reuse is a lifetime rule —
// tensors returned by an oracle are valid only until its next query; callers
// that need them longer must Clone them.
//
// SubstituteStemOracle is the adaptive attacker of §IV-C: it distills its
// own stem against the shielded model's observable logits on the shared
// models.Trainer — the stem parameters are the ones it moves, mean-squared
// error to the teacher is the objective — and so inherits the trainer's
// arena, batch schedule and batch-size default.
//
// RecordingOracle wraps any oracle and clones every queried sample, turning
// an attack run into the query stream a serving defender would have seen —
// the trace source of the probe-detection replay in internal/eval.
package attack
