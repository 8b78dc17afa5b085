// Package models implements the defending architectures evaluated in the
// paper: Vision Transformers (ViT-L/16, ViT-B/16, ViT-B/32), pre-activation
// ResNets (ResNet-56, ResNet-164) and Big Transfer models (BiT-M-R101x3,
// BiT-M-R152x4) with weight-standardized convolutions and group norm.
//
// Every model is built on the autograd graph and exposes its Pelta shield
// boundary: the vertex z separating the enclave-resident shallow transforms
// from the clear remainder of the network. After Backward, z.Grad is the
// adjoint δ_{L+1} — the only backward quantity a shielded attacker can see
// (§IV-B). Paper-scale configurations are retained as metadata so Table I
// enclave footprints can be computed analytically without allocating
// 500 MB+ models.
//
// A model has one Forward. Whether a pass is taped (training, gradient
// oracles) or tape-free is the graph's business: Logits, Predict and
// Accuracy run Forward on a graph in autograd's inference mode, which
// returns the same logits bit for bit, records no backward closure and
// never touches Param.Grad.
//
// Models are not safe for concurrent mutation: training and weight loads
// (fl.Apply) must be exclusive, while concurrent forward passes over
// frozen weights are fine when each goroutine brings its own graph.
// Train is deterministic for a fixed TrainConfig.Seed — batch order and
// initialization derive from explicit RNGs, never global state.
//
// Trainer is the one mini-batch trainer every party runs: Train, the enclave
// trainer of internal/core and the substitute distillation of
// internal/attack are all NewTrainer + Fit. A Trainer owns its pooled graph
// arena (swept at the start of every Step, never shared) and the Adam
// moments of the parameters it moves; nil params means all of them, and
// Model.Params() — which rebuilds its slice — is called once, in NewTrainer.
// Step's nil loss is mean cross-entropy on the labels, so the default path
// builds no closure per batch; its grads hook sees the fresh gradients
// before the update, and every gradient, moved or frozen, is zero when Step
// returns. Fit reuses one batch buffer (a step must not keep its batch),
// reads a batch size ≤ 0 as 32 and returns errors instead of panicking.
package models
