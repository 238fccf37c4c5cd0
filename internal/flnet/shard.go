package flnet

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fhdnn/internal/fedcore"
)

// The sharded round state. Aggregation runs on the upload handler's own
// goroutine: the round is split across N shards, each one inner
// aggregator of a fedcore.ShardedAggregator plus that shard's dedupe set,
// and each guarded by a one-token lock — a channel of capacity 1 rather
// than a mutex, because both acquirers need a timeout. A handler decodes
// and gate-checks its update without any lock, admits itself against
// ShardQueue (too many handlers already on the shard -> 429 with
// Retry-After: backpressure instead of an unbounded pile-up), takes its
// shard's token, streams the update into the shard aggregator, and
// returns the token. Shards > 1 only buys parallel Adds on a multi-core
// host; the math is the same for every shard count.
//
// Round commit runs on whichever goroutine closes the round — the handler
// that added the MinUpdates-th update, the deadline timer, or Shutdown —
// one at a time under the closing token. It takes every live shard's
// token (holding them all proves no Add is in flight), folds the shard
// aggregators into the global model, resets round state, advances the
// round, and returns the tokens. A shard whose token cannot be had within
// CommitTimeout is declared dead: the commit proceeds without it (partial
// aggregation — the paper's stance that stragglers and failures must not
// stall the federation), its clients are rerouted to the next live shard,
// and /v1/stats records the loss.
//
// Lock order: closing before shard tokens, shard tokens in index order,
// Server.mu innermost and never held across a channel operation. A
// handler therefore returns its shard token before it asks for closing;
// holding on to it would make a racing deadline commit wait out
// CommitTimeout on a healthy shard and write it off as dead.
type shard struct {
	id       int
	token    chan struct{} // capacity 1; holding the token owns agg and seen
	killOnce sync.Once
	agg      fedcore.Aggregator // == sharded.Shard(id)
	seen     map[string]bool    // per-round client dedupe
	dead     atomic.Bool        // set by a commit that timed out on the token

	depth      atomic.Int64 // gauges and counters for ShardStats
	enqueued   atomic.Int64
	accepted   atomic.Int64
	stale      atomic.Int64
	duplicates atomic.Int64
	dropped    atomic.Int64
	commits    atomic.Int64
	pending    atomic.Int64
}

// take acquires the shard's token, waiting at most wait or until stop is
// closed (nil never stops). The uncontended path is one non-blocking
// receive; a timer is built only when the token is out.
func (sh *shard) take(wait time.Duration, stop <-chan struct{}) bool {
	select {
	case <-sh.token:
		return true
	default:
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-sh.token:
		return true
	case <-t.C:
	case <-stop:
	}
	return false
}

type commitReason int

const (
	commitMinUpdates commitReason = iota
	commitDeadline
	commitShutdown
)

// aggregate applies one update to its shard, whose token the caller
// holds: round and duplicate gates, then a streaming Add into the shard
// aggregator. It returns the upload's HTTP status (202, also for an
// idempotent duplicate; 409 stale; 410 closed), the server's current
// round, and whether this was the MinUpdates-th update of the round — the
// caller must then commit it, after returning the token.
//
//fhdnn:hotpath per-update aggregation step on the handler goroutine
func (s *Server) aggregate(sh *shard, wantRound int, clientID, codec string, params []float32) (status, round int, closes bool) {
	if s.closed.Load() {
		s.stats.updatesRejected.Add(1)
		return http.StatusGone, 0, false
	}
	round = int(s.round.Load())
	if wantRound != round {
		sh.stale.Add(1)
		s.stats.updatesRejected.Add(1)
		return http.StatusConflict, round, false
	}
	if clientID != "" {
		if sh.seen[clientID] {
			sh.duplicates.Add(1)
			s.stats.duplicateUpdates.Add(1)
			return http.StatusAccepted, round, false
		}
		sh.seen[clientID] = true
	}
	sh.agg.Add(fedcore.Update{Params: params, Round: round, ClientID: clientID, Samples: 1})
	sh.accepted.Add(1)
	sh.pending.Add(1)
	s.stats.accept(codec)
	return http.StatusAccepted, round, s.acceptedRound.Add(1) == int64(s.cfg.MinUpdates)
}

// commit closes round (any round, for commitShutdown): take the live
// shards' tokens, fold them into the global model, reset round state,
// advance, return the tokens. A shard whose token stays out past
// CommitTimeout is written off as dead and the round commits without it
// (partial aggregation). Stale calls — the round already advanced, or a
// deadline fired for a round that closed by threshold — are no-ops, which
// is what lets the threshold handler, the deadline timer and Shutdown
// race for the same round.
func (s *Server) commit(reason commitReason, round int) {
	<-s.closing
	defer func() { s.closing <- struct{}{} }()
	if s.closed.Load() {
		return
	}
	if reason == commitShutdown {
		round = int(s.round.Load())
	} else if round != int(s.round.Load()) {
		return
	}
	if s.acceptedRound.Load() == 0 {
		// Empty round: carry it forward (the global model must not drift
		// toward zero just because every client stalled), or close down
		// with nothing to fold.
		switch reason {
		case commitDeadline:
			s.armDeadline()
		case commitShutdown:
			s.stopDeadline()
			s.closed.Store(true)
		}
		return
	}

	// A shard whose token does not come back within CommitTimeout is
	// dead: killed, wedged, or stuck mid-Add; the round must not stall
	// on it.
	live := make([]bool, len(s.shards))
	partial := false
	for i, sh := range s.shards {
		switch {
		case sh.dead.Load():
			partial = true
		case sh.take(s.commitTimeout, nil):
			live[i] = true
		default:
			sh.dead.Store(true)
			partial = true
		}
	}

	// The round advances in the same critical section as the fold, so a
	// Model() snapshot never pairs the new global with the old round.
	next := round + 1
	s.mu.Lock()
	s.sharded.CommitLive(s.model.Flat(), live)
	s.acceptedRound.Store(0)
	s.round.Store(int64(next))
	s.mu.Unlock()

	if partial {
		s.stats.partialCommits.Add(1)
	}
	if reason == commitDeadline {
		s.stats.roundsForcedByDeadline.Add(1)
	}
	if reason == commitShutdown || (s.cfg.MaxRounds > 0 && next > s.cfg.MaxRounds) {
		s.closed.Store(true)
		s.stopDeadline()
	} else {
		s.armDeadline()
	}
	for i, sh := range s.shards {
		if !live[i] {
			continue // a dead shard's state is left untouched: its token holder may still be using it
		}
		sh.agg.Reset()
		clear(sh.seen)
		sh.pending.Store(0)
		sh.commits.Add(1)
		sh.token <- struct{}{}
	}
}

// armDeadline (re)arms the round deadline for the current round. The
// timer belongs to whoever holds the closing token (NewServer arms the
// first one before the server is shared).
func (s *Server) armDeadline() {
	s.stopDeadline()
	if s.cfg.RoundDeadline <= 0 || s.closed.Load() {
		return
	}
	round := int(s.round.Load())
	s.deadlineTimer = time.AfterFunc(s.cfg.RoundDeadline, func() {
		s.commit(commitDeadline, round)
	})
}

func (s *Server) stopDeadline() {
	if s.deadlineTimer != nil {
		s.deadlineTimer.Stop()
		s.deadlineTimer = nil
	}
}

// routeShard picks the shard for a client identity: its stable hash
// shard, or — when that shard is dead — the next live one, so a shard
// failure degrades routing instead of blackholing its clients. Deadness
// is sticky, which keeps the rerouted assignment (and with it per-round
// dedupe) stable. Returns nil when every shard is dead.
func (s *Server) routeShard(clientID string) *shard {
	n := len(s.shards)
	if n == 0 {
		// Also keeps ShardIndex's modulo off a zero divisor.
		return nil
	}
	i := fedcore.ShardIndex(clientID, n)
	if i < 0 || i >= n {
		// ShardIndex reduces modulo n, so this cannot fire — but clientID
		// is an attacker-chosen header, and an explicit range check keeps
		// the hash→index contract local instead of trusting it across the
		// package boundary (and keeps taintindex provable).
		return nil
	}
	for probe := 0; probe < n; probe++ {
		if sh := s.shards[(i+probe)%n]; !sh.dead.Load() {
			return sh
		}
	}
	return nil
}

// KillShard takes shard i's token and never returns it — the chaos hook
// for fault-tolerance tests. Uploads routed to the shard time out; the
// next commit discovers the death (CommitTimeout), degrades the round to
// partial aggregation and reroutes the shard's clients. Waits for an Add
// or commit in flight on the shard; idempotent.
func (s *Server) KillShard(i int) {
	sh := s.shards[i]
	sh.killOnce.Do(func() { <-sh.token })
}
