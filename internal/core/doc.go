// Package core implements the Pelta shielding scheme (Algorithm 1 of the
// paper): after every inference pass, the shallowest vertices of the
// model's computational graph — their outputs u_i, parameters, intermediate
// gradients, and the input-adjacent local jacobians ∂f_j/∂x — are moved into
// a TEE enclave and scrubbed from normal-world memory. What remains visible
// to a compromised client is the clear deep segment of the network and the
// adjoint δ_{L+1} of the shallowest clear layer, which is not enough to
// complete the back-propagation chain rule to the input (Eq. 1).
//
// A ShieldedModel owns one enclave and one pooled graph arena and serves
// queries sequentially; concurrent attackers each build their own (or fan
// out through attack.ParallelOracle). Query results are deterministic —
// shielding changes what is visible, never the numbers computed.
//
// EnclaveTrainer is §VI's enclave-resident training. It owns no optimizer
// and no epoch loop: it keeps one models.Trainer for life (its Adam moments
// persist across calls) and hooks its Step — the fresh shielded gradients are
// accumulated into the enclave before the shared Adam update.
package core
