// Package dataset provides procedurally generated, class-separable image
// datasets standing in for CIFAR-10, CIFAR-100 and ImageNet (which cannot be
// downloaded in this offline reproduction).
//
// Every class has a deterministic prototype image built from a few random
// low-frequency sinusoidal patterns; samples are noisy, brightness-jittered
// draws around the prototype, clipped to [0,1] like normalized pixels. The
// construction preserves what the paper's evaluation needs: models reach
// high clean accuracy, inputs live in a pixel box, and gradient-based
// attacks can move samples across decision boundaries within an ε-ball.
//
// Generation is deterministic: the same Config (including Seed) always
// yields bit-identical splits, and the federated partitioners — IID Shards
// and the label-skewed non-IID ShardsSkewed — are pure functions of their
// seeds, so a scenario sweep replays exactly. Datasets are immutable after
// generation and safe for concurrent readers.
package dataset
