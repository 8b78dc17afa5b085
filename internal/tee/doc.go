// Package tee simulates an ARM TrustZone-style trusted execution
// environment: an enclave with a hard memory ceiling, a secure/normal-world
// boundary crossed only through an encrypted channel, remote attestation,
// and metering of world switches and bytes transferred (the §VI overheads).
//
// The simulation enforces the two properties Pelta relies on:
//
//  1. Confidentiality — objects stored in the enclave can only be read back
//     by the holder of the owner token issued at enclave creation. The
//     attacker-facing API in internal/core never receives this token.
//  2. Bounded memory — Store fails with ErrEnclaveFull once the configured
//     ceiling (30 MB by default, the TrustZone budget cited in the paper)
//     would be exceeded.
//
// Every Store crosses the boundary for real. The tensor is encoded as
// [rank | dims | float32 elements] behind a nonce slot in the channel's one
// wire buffer, [nonce | payload | tag]; AES-GCM seals the payload in place
// and the enclave opens it in place, so the full payload is encrypted and
// authenticated on every crossing and a tampered byte fails to open. The
// 96-bit nonce is a per-channel counter (4 zero bytes, then a big-endian
// uint64): no nonce repeats under the channel's key, and an exhausted
// counter makes Store fail instead of wrapping. The opened payload is
// decoded into a spare of the same shape when the enclave has one. Flush
// adds the object it removes to the spares, and FlushAll replaces them with
// every object it removes, so a steady pass of same-shaped stores
// allocates nothing. Spares never leave the enclave (Load returns a copy),
// and live plus spare bytes never exceed the memory ceiling: a Store or
// Accumulate that finds no spare of its shape drops them all when it would
// pass it.
//
// Side-channel attacks are out of scope, exactly as in the paper's threat
// model (§III).
//
// An Enclave is safe for sequential use by its owning shielded model;
// metering (world switches, bytes) is per-enclave and deterministic for a
// fixed query sequence.
package tee
