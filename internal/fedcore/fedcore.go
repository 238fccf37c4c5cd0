// Package fedcore is the transport-agnostic federated core shared by the
// in-process simulator (package fl) and the wire-level HTTP stack
// (package flnet). It owns the three things every federated deployment of
// this codebase needs, exactly once:
//
//   - Update and Aggregator: one representation of a client contribution
//     and the aggregation rules over it — sample-weighted FedAvg for CNN
//     weights, federated bundling for HD prototypes (paper Eq. 1, with
//     the coordinated partial-update mask of Fig. 5), and the robust
//     rules (Median, TrimmedMean, NormClip). Every rule's Commit replaces
//     the global with the round's aggregate; the asynchronous simulator
//     (fl.AsyncHDTrainer) folds its staleness-discounted deltas itself.
//   - Engine: the synchronous round loop (client sampling, parallel
//     deterministic workers, uplink corruption, traffic accounting,
//     per-round evaluation) that fl.HDTrainer and fl.CNNTrainer
//     configure instead of reimplementing.
//   - Envelope: a versioned, self-describing wire format (magic + version
//   - codec id + element count + CRC32) that frames any compress.Codec,
//     so the flnet protocol ships the same compressed updates the
//     simulator accounts for. UpdateWireBytes is the single sizing rule,
//     with two cases: a codec uplink costs WireBytes (the envelope both
//     sides put on the wire), any other channel raw bytes per value. That
//     is what keeps simulated and actual wire bytes from drifting.
package fedcore

import (
	"math/rand"
	"sort"
)

// Update is one client contribution to the global model: the flat
// parameter payload plus the metadata aggregation rules need.
type Update struct {
	// Params is the flat parameter vector. No Aggregator keeps it past
	// Add: each one folds it in or copies it, so the caller may reuse the
	// slice once Add returns.
	// Under the Engine it may alias trainer memory; see Engine.Train.
	Params []float32
	// Round is the communication round the update belongs to.
	Round int
	// Client is the numeric client id in simulations (-1 if unknown).
	Client int
	// ClientID is the wire-level client identity (flnet's X-Fhdnn-Client).
	ClientID string
	// Samples is the client's local dataset size; FedAvg weights by it.
	Samples int
	// Loss is the client's final local training loss (CNN trainers).
	Loss float64
}

// Aggregator folds client updates into the global parameter vector. Add
// is called once per received update (in deterministic client order by
// the Engine), Commit applies the aggregate to the global vector, and
// Reset clears state for the next round. Implementations are not safe for
// concurrent use; callers serialize (the Engine aggregates after the
// worker barrier, flnet.Server under one token per shard).
type Aggregator interface {
	Add(u Update)
	// Len reports how many updates have been added since the last Reset.
	Len() int
	// Commit replaces global with the aggregate of the updates added
	// since the last Reset (Bundle's Mask limits which entries it
	// replaces); it never adds to what global held. With no updates added
	// it is a no-op, so an empty round carries the previous global forward.
	Commit(global []float32)
	Reset()
}

// FedAvg is sample-count-weighted federated averaging (McMahan et al.):
// Commit replaces the global vector with sum(w_i * x_i) / sum(w_i) where
// w_i is the client's Samples.
type FedAvg struct {
	sum    []float64
	totalW float64
	n      int
}

// Add implements Aggregator. Once the accumulator is sized it allocates
// nothing (TestWarmAccumulatorReused).
func (a *FedAvg) Add(u Update) {
	if a.n == 0 {
		a.sum = sizeAccumulator(a.sum, len(u.Params))
	}
	w := float64(u.Samples)
	for i, v := range u.Params {
		a.sum[i] += float64(w * float64(v))
	}
	a.totalW += w
	a.n++
}

// Len implements Aggregator.
func (a *FedAvg) Len() int { return a.n }

// Commit implements Aggregator, in place and allocating nothing
// (TestWarmAccumulatorReused).
func (a *FedAvg) Commit(global []float32) {
	if a.totalW <= 0 {
		return
	}
	inv := 1 / a.totalW
	for i := range global {
		global[i] = float32(a.sum[i] * inv)
	}
}

// Reset implements Aggregator. The accumulator's storage is cleared and
// kept for the next round.
func (a *FedAvg) Reset() {
	clear(a.sum)
	a.sum = a.sum[:0]
	a.totalW = 0
	a.n = 0
}

// sizeAccumulator returns an n-entry accumulator for the first Add of a
// round, reusing acc's storage when it is large enough. Every entry of
// that storage is zero: it is fresh, or Reset cleared it.
func sizeAccumulator(acc []float64, n int) []float64 {
	if cap(acc) >= n {
		return acc[:n]
	}
	return make([]float64, n)
}

// Bundle is federated bundling over HD class prototypes (paper Eq. 1
// followed by 1/N normalization — cosine classification is
// scale-invariant, the normalization only bounds magnitudes). When Mask
// is set, Commit refreshes only the masked entries and leaves the rest of
// the global vector at its previous values: the coordinated
// partial-update bandwidth knob that cashes in the paper's
// holographic-representation property (Fig. 5).
type Bundle struct {
	// Mask, when non-nil, restricts Commit to these entry indices.
	Mask []int

	sum []float64
	n   int
}

// Add implements Aggregator. Once the accumulator is sized it allocates
// nothing (TestWarmAccumulatorReused).
func (a *Bundle) Add(u Update) {
	if a.n == 0 {
		a.sum = sizeAccumulator(a.sum, len(u.Params))
	}
	widenAdd(a.sum, u.Params) // panics on an update longer than the accumulator
	a.n++
}

// Len implements Aggregator.
func (a *Bundle) Len() int { return a.n }

// Commit implements Aggregator, in place and allocating nothing
// (TestWarmAccumulatorReused).
func (a *Bundle) Commit(global []float32) {
	if a.n == 0 {
		return
	}
	inv := 1 / float64(a.n)
	if a.Mask != nil {
		for _, i := range a.Mask {
			global[i] = float32(a.sum[i] * inv)
		}
		return
	}
	for i := range global {
		global[i] = float32(a.sum[i] * inv)
	}
}

// Reset implements Aggregator (the Mask persists; it is per-round state
// owned by the caller). The accumulator's storage is cleared and kept for
// the next round.
func (a *Bundle) Reset() {
	clear(a.sum)
	a.sum = a.sum[:0]
	a.n = 0
}

// ClientRNG derives the deterministic random stream for one client in one
// round: every client's randomness is keyed by (seed, round, id), so
// simulation results are bit-identical regardless of worker count. The
// constants are arbitrary odd 64-bit mixers.
func ClientRNG(seed int64, round, id int) *rand.Rand {
	h := seed
	h ^= (int64(round) + 1) * -0x61C8864680B583EB
	h ^= (int64(id) + 1) * 0x2545F4914F6CDD1D
	return rand.New(rand.NewSource(h))
}

// SampleClients picks max(1, round(frac*n)) distinct client ids, sorted.
func SampleClients(rng *rand.Rand, n int, frac float64) []int {
	k := int(float64(frac*float64(n)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	ids := rng.Perm(n)[:k]
	sort.Ints(ids)
	return ids
}
