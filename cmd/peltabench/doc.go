// Command peltabench regenerates the paper's tables and figures.
//
// Usage:
//
//	peltabench -table all -fig all            # everything, quick scale
//	peltabench -table 3 -dataset cifar100     # one table, one dataset
//	peltabench -table 4 -full -n 200 -hw 32   # larger sweep
//	peltabench -fig 4 -out ./fig4             # dump the Fig. 4 images
//
// Quick scale (default) trains scaled-down defenders on 16×16 synthetic
// data in about a minute per dataset block; -hw/-trainn/-epochs/-n scale
// the experiment up toward the paper's protocol (1000 samples). Each attack
// batch goes through one oracle whose kernels spread over the worker pool
// (PELTA_KERNEL_WORKERS); results do not depend on the worker count. The command prints tables only — timings and their comparison
// across commits belong to the bench/ module (go run -C bench .).
package main
