package fl

import (
	"fmt"
	"sort"
)

// Rejection reasons returned by BufferedAggregator.Offer.
const (
	RejectDuplicate = "duplicate"
	RejectStale     = "stale"
	RejectNonFinite = "non-finite"
)

// pendingUpdate is one buffered client update awaiting aggregation.
type pendingUpdate struct {
	client  int
	version int // global-model version the client trained on
	resp    UpdateResponse
}

// AggregatorStats counts what the aggregator did with offered updates.
type AggregatorStats struct {
	// Merged counts updates folded into the global model; StaleMerged is
	// the subset that arrived late (staleness ≥ 1) and was discounted.
	Merged      int
	StaleMerged int
	// Duplicates, Rejected and NonFinite count updates refused on Offer
	// (retransmits, beyond-horizon stragglers and updates carrying a NaN
	// or ±Inf coordinate respectively).
	Duplicates int
	Rejected   int
	NonFinite  int
}

// BufferedAggregator merges client updates as they arrive instead of
// barriering a round on the slowest client. Updates are buffered with the
// model version they were trained on; once Quorum updates are pending the
// round closes and Drain folds them into one staleness-discounted FedAvg.
// Retransmitted updates (same client, same trained-on version), updates
// older than MaxStaleness versions and updates with a non-finite coordinate
// (one NaN would poison every mean it enters) are refused at Offer time.
//
// The aggregator is not safe for concurrent use; the AsyncServer event loop
// is its only caller.
type BufferedAggregator struct {
	// Quorum is the number of pending updates that closes a round.
	Quorum int
	// MaxStaleness is the oldest trained-on version (relative to the
	// current one) still worth merging; older offers are rejected.
	MaxStaleness int
	// Lambda is the staleness-decay exponent: an update trained s versions
	// ago contributes with its sample count discounted by (1+s)^-Lambda.
	// Lambda = 0 treats stale updates at full weight.
	Lambda float64
	// Rule is the aggregation defense applied at Drain (nil = FedAvgAgg).
	Rule Aggregator

	pending  []pendingUpdate
	lastSeen map[int]int // client index → latest trained-on version accepted
	stats    AggregatorStats
}

// NewBufferedAggregator builds an aggregator closing rounds at quorum
// updates and discarding updates staler than maxStaleness versions.
func NewBufferedAggregator(quorum, maxStaleness int, lambda float64) *BufferedAggregator {
	if quorum < 1 {
		quorum = 1
	}
	return &BufferedAggregator{
		Quorum:       quorum,
		MaxStaleness: maxStaleness,
		Lambda:       lambda,
		lastSeen:     make(map[int]int),
	}
}

// Offer presents one update from client (trained on model version) while
// the global model is at current. It reports whether the update was
// buffered and, if not, the rejection reason.
func (a *BufferedAggregator) Offer(client int, resp UpdateResponse, version, current int) (bool, string) {
	if last, ok := a.lastSeen[client]; ok && version <= last {
		a.stats.Duplicates++
		return false, RejectDuplicate
	}
	if current-version > a.MaxStaleness {
		a.stats.Rejected++
		return false, RejectStale
	}
	if nonFinite(resp.Weights) {
		a.stats.NonFinite++
		return false, RejectNonFinite
	}
	a.lastSeen[client] = version
	a.pending = append(a.pending, pendingUpdate{client: client, version: version, resp: resp})
	return true, ""
}

// Ready reports whether enough updates are buffered to close a round.
func (a *BufferedAggregator) Ready() bool { return len(a.pending) >= a.Quorum }

// Pending returns the number of buffered updates.
func (a *BufferedAggregator) Pending() int { return len(a.pending) }

// Stats returns the lifetime counters.
func (a *BufferedAggregator) Stats() AggregatorStats { return a.stats }

// Drain closes the round: it merges every pending update into one weight
// snapshot and clears the buffer, returning the merged updates for
// telemetry. Merge order is ascending client index regardless of arrival
// order — the property behind the engine's bit-reproducible deterministic
// mode. Late updates are discounted by (1+staleness)^-Lambda, staleness
// measured against current. prev is the version-current broadcast
// snapshot, which delta-space defenses need.
func (a *BufferedAggregator) Drain(current int, prev Weights) (Weights, []pendingUpdate, error) {
	if len(a.pending) == 0 {
		return Weights{}, nil, fmt.Errorf("fl: draining empty aggregator")
	}
	merged := a.pending
	a.pending = nil
	sort.Slice(merged, func(i, j int) bool { return merged[i].client < merged[j].client })

	updates := make([]Weights, len(merged))
	counts := make([]int, len(merged))
	staleness := make([]int, len(merged))
	for i, p := range merged {
		updates[i] = p.resp.Weights
		counts[i] = p.resp.Samples
		staleness[i] = current - p.version
		if staleness[i] > 0 {
			a.stats.StaleMerged++
		}
	}
	a.stats.Merged += len(merged)

	rule := a.Rule
	if rule == nil {
		rule = FedAvgAgg{}
	}
	w, err := rule.Aggregate(prev, updates, counts, staleness, a.Lambda)
	if err != nil {
		return Weights{}, nil, err
	}
	return w, merged, nil
}

// StalenessFedAvg is FedAvg with each update's sample count discounted by
// (1+staleness)^-lambda — the standard async-FL rule (cf. FedAsync/FedBuff)
// that keeps straggler updates useful without letting them drag the global
// model toward an old version.
func StalenessFedAvg(updates []Weights, counts, staleness []int, lambda float64) (Weights, error) {
	if err := validateUpdates(updates, counts, staleness); err != nil {
		return Weights{}, err
	}
	return weightedMean(updates, discounted(counts, staleness, lambda)), nil
}
