package fl

import (
	"math/rand"
	"sort"
	"sync"

	"fhdnn/internal/dataset"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
	"fhdnn/internal/invariant"
	"fhdnn/internal/tensor"
)

// HDTrainer runs federated bundling (paper Sec. 3.4.2) over an HD model.
// Clients operate on pre-encoded hypervectors — in FHDnn the CNN feature
// extractor and HD encoder are frozen and shared, so encoding happens once
// up front, which is exactly the property that makes local training cheap.
//
// Aggregation is fedcore.Bundle: paper Eq. 1 (sum of client models)
// followed by a 1/N normalization. Cosine-similarity classification is
// scale-invariant, so the normalization changes no prediction; it only
// keeps prototype magnitudes bounded across hundreds of rounds.
//
// The round loop itself — sampling, parallel workers, uplink corruption,
// traffic accounting, evaluation — is fedcore.Engine;
// this type only supplies the HD-specific local update and the partial
// transmission mask. Results are identical for any worker count.
type HDTrainer struct {
	Cfg        Config
	Encoded    *tensor.Tensor // [nTrain, d] encoded training hypervectors
	Labels     []int
	TestEnc    *tensor.Tensor // [nTest, d]
	TestLabels []int
	NumClasses int
	Part       dataset.Partition

	// AdaptiveLR, when nonzero, selects similarity-weighted refinement
	// at this learning rate (hdc.Model.LocalUpdate) instead of the
	// paper's fixed rule (0).
	AdaptiveLR float32
	// TransmitFrac in (0,1] enables coordinated partial updates: each
	// round the server draws a shared random subset containing this
	// fraction of the model's entries; clients upload only that subset
	// and the server leaves the remaining entries at their previous
	// global values. This cashes in the holographic-representation
	// property (paper Fig. 5) as a bandwidth knob. 0 or 1 disables it.
	TransmitFrac float64
	// Agg, when set, replaces the default fedcore.Bundle commit rule
	// with another aggregation policy — fedcore.Median, TrimmedMean, or
	// NormClip for Byzantine robustness. TransmitFrac masking is a
	// Bundle feature and cannot be combined with a custom Agg.
	Agg fedcore.Aggregator
	// TamperUpdate, when set, mutates a client's flat update in place
	// just before it leaves the client: the adversarial-client injection
	// hook (see internal/faults.Poisoner) the poisoning experiments use
	// to turn a chosen subset of clients Byzantine. global is the
	// read-only flat global vector the client trained from, the
	// reference a delta-level attack corrupts against. params is a
	// recycled client replica that is handed to another client after the
	// round commits, so the hook must not retain it.
	TamperUpdate func(round, id int, params, global []float32)
}

// Run executes federated bundling and returns the history and the final
// global model.
func (t *HDTrainer) Run() (*History, *hdc.Model) {
	if err := t.Cfg.Validate(); err != nil {
		panic(err)
	}
	d := t.Encoded.Dim(1)
	global := hdc.NewModel(t.NumClasses, d)
	bundled := make([]bool, t.Cfg.NumClients) // has the client one-shot trained yet?

	// Client models are recycled: an update's Params is its replica's
	// storage, which the aggregator may hold until the round commits, so
	// replicas[:used] stay out of circulation until AfterCommit. Every
	// replica is overwritten from the global model before training, so
	// which client gets which replica changes nothing.
	var mu sync.Mutex
	var replicas []*hdc.Model
	used := 0

	agg := t.Agg
	if agg == nil {
		agg = &fedcore.Bundle{}
	}
	hist := &History{}
	eng := &fedcore.Engine{
		Clients:   t.Cfg.NumClients,
		Fraction:  t.Cfg.ClientFraction,
		Rounds:    t.Cfg.Rounds,
		Seed:      t.Cfg.Seed,
		Parallel:  t.Cfg.Parallel,
		Uplink:    t.Cfg.Uplink,
		SampleRNG: fedcore.ClientRNG(t.Cfg.Seed, 0, -1),
		Agg:       agg,
		Global:    global.Flat(),
		// The client's examples are read in place, as rows idx of
		// t.Encoded. bundled[id] is only ever touched by the one worker
		// handling client id this round; ids within a round are distinct.
		Train: func(_, round, id int, _ *rand.Rand) (fedcore.Update, bool) {
			idx := t.Part[id]
			if len(idx) == 0 {
				return fedcore.Update{}, false
			}
			mu.Lock()
			if used == len(replicas) {
				replicas = append(replicas, hdc.NewModel(t.NumClasses, d))
			}
			local := replicas[used]
			used++
			mu.Unlock()
			copy(local.Flat(), global.Flat())
			local.LocalUpdate(t.Encoded, t.Labels, idx, &bundled[id], t.Cfg.LocalEpochs, t.AdaptiveLR)
			u := fedcore.Update{Params: local.Flat(), Samples: len(idx)}
			if t.TamperUpdate != nil {
				t.TamperUpdate(round, id, u.Params, global.Flat())
			}
			return u, true
		},
		// The workers have joined and the aggregator has been Reset.
		AfterCommit: func(int) { used = 0 },
		Evaluate:    func() float64 { return global.Accuracy(t.TestEnc, t.TestLabels) },
		OnRound:     hist.Append,
	}
	if t.TransmitFrac > 0 && t.TransmitFrac < 1 {
		b, ok := agg.(*fedcore.Bundle)
		if !ok {
			invariant.Fail("fl: TransmitFrac masking requires the default fedcore.Bundle aggregator")
		}
		// Clients still bundle full vectors locally, but only the shared
		// per-round subset travels and is refreshed in the global model.
		eng.BeginRound = func(round int) {
			b.Mask = sampleMask(fedcore.ClientRNG(t.Cfg.Seed, round, -2), t.NumClasses*d, t.TransmitFrac)
		}
		eng.WireCount = func(fedcore.Update) int { return len(b.Mask) }
	}
	eng.Run()
	return hist, global
}

// sampleMask draws a sorted subset of ceil(frac*n) distinct entry indices.
func sampleMask(rng *rand.Rand, n int, frac float64) []int {
	k := int(float64(frac*float64(n)) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}
