// Package nn provides neural-network building blocks (layers, initializers,
// the Adam optimizer) on top of the autograd engine. Layers own their parameters and
// record vertices into a per-pass graph, so the same layer instance can be
// trained, attacked, and shielded.
//
// Layers hold no per-pass state — everything transient lives in the graph
// — so one layer instance can serve concurrent passes over frozen
// parameters. Initializers and Adam consume explicit seeds/state, keeping
// parameter evolution reproducible run to run. Adam is the only optimizer
// (there is no SGD) and models.Trainer is its only caller: every training
// loop in the repo shares its arithmetic to the bit.
package nn
