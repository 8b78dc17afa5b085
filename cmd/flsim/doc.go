// Command flsim simulates federated learning under the paper's threat
// model, either as a single Fig. 1 federation or as a scenario sweep over
// the whole threat matrix. Both modes run on the asynchronous round engine
// of internal/fl: clients train concurrently on a worker pool, the server
// samples a cohort per round, and a staleness-aware aggregator merges
// updates as they arrive (pass -deterministic to barrier rounds and get the
// synchronous FedAvg result of Fig. 1, bit-reproducible for a given seed).
//
// Single run:
//
//	flsim -clients 4 -rounds 3                 # unshielded baseline
//	flsim -clients 4 -rounds 3 -shield         # Pelta on the attacker's device
//	flsim -tcp                                 # clients over loopback TCP
//	flsim -quorum 3 -workers 4                 # async: close rounds at 3 updates
//	flsim -defense multikrum -save m.ckpt      # robust aggregation; checkpoint is
//	                                           # stamped with the defense for
//	                                           # cmd/peltaserve warm starts
//
// Scenario sweep — the cross product of {fleet size × non-IID shard skew ×
// shield on/off × probe attack × poisoning fraction × poison strategy ×
// aggregation defense}, one JSON row per cell (NDJSON), summarized through
// internal/eval:
//
//	flsim -sweep -out sweep.json               # default 2,4,8 × skew × attacks matrix
//	flsim -sweep -sweep.clients 8,16 -sweep.attacks pgd,saga -sweep.poison 0,0.25
//	flsim -sweep -sweep.attacks none -sweep.poison 0,0.25 \
//	      -sweep.poisons label-flip,sign-flip,model-replacement \
//	      -sweep.defenses fedavg,krum,multikrum,trimmed-mean,median,normclip
//	flsim -summarize sweep.json                # re-render the summary of a past sweep
//
// For label-flip cells the poisoning fraction is the poisoned share of the
// single poisoner's shard; for the update-space sign-flip and
// model-replacement strategies it is the share of the fleet compromised.
// The summary includes a defense × poisoning robustness table (mean final
// accuracy and % of same-defense clean accuracy).
//
// A row records the cell's configuration plus outcome and engine telemetry:
// final_accuracy, robust_accuracy/fooled from the compromised client's last
// probe, poison_effective, bandwidth (down_bytes/up_bytes: fl.WireBytes,
// the weights' size in the FL wire's binary frames), wall time,
// rounds_per_sec, and the aggregator's merged/stale_merged/duplicates/
// rejected/drops counters.
package main
