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
// queries sequentially; concurrent attackers each build their own. Query
// results are deterministic — shielding changes what is visible, never the
// numbers computed.
//
// A forward-only pass (Query with a nil loss, Predict — what a deployed
// defender serves) runs in autograd's inference mode: no backward closure
// is recorded and no Param.Grad is read, cleared or stored, so serving and
// probing leave the defender's pending gradients alone. The vertices and
// their parents are recorded all the same, so Algorithm 1 stores and scrubs
// the same objects with the same world switches as on a taped pass. Only a
// gradient-producing Query tapes the pass and clears every parameter
// gradient afterwards.
//
// EnclaveTrainer is §VI's enclave-resident training. It owns no optimizer
// and no epoch loop: it keeps one models.Trainer for life (its Adam moments
// persist across calls) and hooks its Step — the fresh shielded gradients are
// accumulated into the enclave before the shared Adam update.
package core
