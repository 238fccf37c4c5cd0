package fedcore

import (
	"math/rand"
	"sync"

	"fhdnn/internal/channel"
	"fhdnn/internal/invariant"
)

// Engine is the shared synchronous round loop: it samples clients, runs
// local training on a deterministic worker pool, simulates uplink
// corruption, aggregates in client order through an Aggregator, accounts
// wire traffic, and evaluates the committed model. fl.HDTrainer
// and fl.CNNTrainer are thin configurations of it; the flnet server runs
// the same Aggregator under its own HTTP-driven loop.
//
// Determinism contract: every client's randomness comes from
// ClientRNG(Seed, round, id) and aggregation happens in sampled-client
// order after all workers join, so results are bit-identical for any
// Parallel value.
type Engine struct {
	Clients  int
	Fraction float64 // paper C
	Rounds   int
	Seed     int64
	Parallel int // worker goroutines (<=1 means sequential)
	// Uplink corrupts each transmitted update; nil means perfect.
	Uplink channel.Channel
	// BytesPerParam is the raw wire size of one parameter (default 4).
	BytesPerParam int

	// SampleRNG draws the per-round client sample. It is trainer-supplied
	// (not derived from Seed here) so existing trainers keep their exact
	// historical sampling streams.
	SampleRNG *rand.Rand
	// Agg folds the round's received updates into the global vector.
	Agg Aggregator
	// Global is the flat global parameter vector, committed in place.
	Global []float32

	// BeginRound, when set, runs before sampling each round (per-round
	// state such as a partial-update mask).
	BeginRound func(round int)
	// Train runs local training for one sampled client and returns its
	// update; ok=false skips the client (e.g. an empty shard). worker
	// identifies the pool slot for worker-local state (model replicas).
	// u.Params may alias trainer memory: over a perfect uplink it reaches
	// Agg.Add as is, so it must stay untouched until AfterCommit, and may
	// be reused from then on.
	Train func(worker, round, id int, rng *rand.Rand) (u Update, ok bool)
	// WireCount, when set, overrides the per-update element count charged
	// to traffic accounting (partial transmissions).
	WireCount func(u Update) int
	// AfterCommit, when set, runs after the aggregate is committed to
	// Global and the aggregator Reset, and before evaluation (e.g. pushing
	// flat weights back into a network's parameter tensors, or recycling
	// the round's Train buffers).
	AfterCommit func(round int)
	// Evaluate measures global test accuracy, once per round.
	Evaluate func() float64
	// OnRound receives each completed round's statistics.
	OnRound func(RoundStats)
}

// RoundStats records one completed communication round.
type RoundStats struct {
	Round         int
	Participants  int
	BytesUplinked int64   // sum over participants this round
	TrainLoss     float64 // mean local loss of participants (0 if unused)
	TestAccuracy  float64
}

// Workers returns the effective worker count.
func (e *Engine) Workers() int {
	if e.Parallel < 1 {
		return 1
	}
	return e.Parallel
}

// Run executes the configured number of rounds.
func (e *Engine) Run() {
	if e.Agg == nil || e.Train == nil || e.Evaluate == nil || e.OnRound == nil || e.SampleRNG == nil {
		invariant.Fail("fedcore: Engine needs Agg, Train, Evaluate, OnRound and SampleRNG")
	}
	if e.Clients <= 0 || e.Rounds <= 0 {
		invariant.Failf("fedcore: Engine needs positive Clients and Rounds, got %d/%d", e.Clients, e.Rounds)
	}
	uplink := e.Uplink
	if uplink == nil {
		uplink = channel.Perfect{}
	}
	// Perfect.Transmit would only copy the update; the Train buffer lives
	// until AfterCommit, which is as long as the aggregator needs it.
	_, perfect := uplink.(channel.Perfect)
	bpp := e.BytesPerParam
	if bpp == 0 {
		bpp = 4
	}
	for round := 1; round <= e.Rounds; round++ {
		if e.BeginRound != nil {
			e.BeginRound(round)
		}
		ids := SampleClients(e.SampleRNG, e.Clients, e.Fraction)
		received := make([]*Update, len(ids))

		// Sized for the whole round so the dispatch loop below never
		// blocks on a slow worker (an unbuffered jobs channel turns every
		// send into a rendezvous).
		jobs := make(chan int, len(ids))
		var wg sync.WaitGroup
		for w := 0; w < e.Workers(); w++ {
			wg.Add(1)
			// A fixed pool of Parallel workers: each keeps a stable id for its
			// model replica, and all join before the round aggregates in
			// client order.
			go func(worker int) {
				defer wg.Done()
				for ji := range jobs {
					id := ids[ji]
					rng := ClientRNG(e.Seed, round, id)
					u, ok := e.Train(worker, round, id, rng)
					if !ok {
						continue
					}
					if !perfect {
						u.Params = uplink.Transmit(u.Params, rng)
					}
					u.Round = round
					u.Client = id
					received[ji] = &u
				}
			}(w)
		}
		for ji := range ids {
			jobs <- ji
		}
		close(jobs)
		wg.Wait()

		// Aggregate in client order for determinism.
		var bytes int64
		var lossSum float64
		participants := 0
		for _, u := range received {
			if u == nil {
				continue
			}
			e.Agg.Add(*u)
			n := len(u.Params)
			if e.WireCount != nil {
				n = e.WireCount(*u)
			}
			bytes += UpdateWireBytes(uplink, n, bpp)
			lossSum += u.Loss
			participants++
		}
		e.Agg.Commit(e.Global)
		e.Agg.Reset()
		if e.AfterCommit != nil {
			e.AfterCommit(round)
		}

		st := RoundStats{Round: round, Participants: participants, BytesUplinked: bytes, TestAccuracy: e.Evaluate()}
		if participants > 0 {
			st.TrainLoss = lossSum / float64(participants)
		}
		e.OnRound(st)
	}
}
