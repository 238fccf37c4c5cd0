package flnet

import (
	"net/http"
	"sync/atomic"
	"time"

	"fhdnn/internal/fedcore"
)

// The round state. Aggregation runs on the upload handler's own
// goroutine: the round lives in one aggregator plus its dedupe set,
// guarded by a one-token lock — a channel of capacity 1 rather than a
// mutex, because both acquirers need a timeout. A handler decodes and
// gate-checks its update without any lock, admits itself against
// shardQueue (too many handlers already waiting -> 429 with Retry-After:
// backpressure instead of an unbounded pile-up), takes the token,
// streams the update into the aggregator, and returns the token.
//
// Round commit runs on whichever goroutine closes the round — the handler
// that added the MinUpdates-th update, the deadline timer, or Shutdown —
// one at a time under the closing token. It takes the aggregator's token
// (holding it proves no Add is in flight), commits the aggregator into
// the global model, resets round state, advances the round, and returns
// the token. If the token cannot be had within commitTimeout the
// aggregator is written off as dead: the round carries the previous
// global forward (the paper's stance that a failure must not stall the
// federation), later uploads are answered 503, and /v1/stats records the
// loss.
//
// Lock order: closing, then the aggregator token, then Server.mu
// innermost and never held across a channel operation. A handler
// therefore returns the token before it asks for closing; holding on to
// it would make a racing deadline commit wait out commitTimeout and write
// a healthy aggregator off as dead.

// queueStats are the gauges and counters behind Stats.PerShard.
type queueStats struct {
	depth      atomic.Int64
	enqueued   atomic.Int64
	accepted   atomic.Int64
	stale      atomic.Int64
	duplicates atomic.Int64
	dropped    atomic.Int64
	commits    atomic.Int64
	pending    atomic.Int64
}

// take acquires the aggregator token, waiting at most wait or until stop
// is closed (nil never stops). The uncontended path is one non-blocking
// receive; a timer is built only when the token is out.
func (s *Server) take(wait time.Duration, stop <-chan struct{}) bool {
	select {
	case <-s.token:
		return true
	default:
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-s.token:
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

// aggregate applies one update to the aggregator, whose token the caller
// holds: round and duplicate gates, then a streaming Add. It returns the
// upload's HTTP status (202, also for an idempotent duplicate; 409 stale;
// 410 closed), the server's current round, and whether this was the
// MinUpdates-th update of the round — the caller must then commit it,
// after returning the token.
//
//fhdnn:hotpath per-update aggregation step on the handler goroutine
func (s *Server) aggregate(wantRound int, clientID, codec string, params []float32) (status, round int, closes bool) {
	if s.closed.Load() {
		s.stats.updatesRejected.Add(1)
		return http.StatusGone, 0, false
	}
	round = int(s.round.Load())
	if wantRound != round {
		s.queue.stale.Add(1)
		s.stats.updatesRejected.Add(1)
		return http.StatusConflict, round, false
	}
	if clientID != "" {
		if s.seen[clientID] {
			s.queue.duplicates.Add(1)
			s.stats.duplicateUpdates.Add(1)
			return http.StatusAccepted, round, false
		}
		s.seen[clientID] = true
	}
	s.agg.Add(fedcore.Update{Params: params, Round: round, ClientID: clientID, Samples: 1})
	s.queue.accepted.Add(1)
	s.queue.pending.Add(1)
	s.stats.accept(codec)
	return http.StatusAccepted, round, s.acceptedRound.Add(1) == int64(s.cfg.MinUpdates)
}

// commit closes round (any round, for commitShutdown): take the token,
// commit the aggregator into the global model, reset round state,
// advance, return the token. If the token stays out past commitTimeout
// the aggregator is written off as dead and the round advances with the
// previous global carried forward. Stale calls — the round already
// advanced, or a deadline fired for a round that closed by threshold —
// are no-ops, which is what lets the threshold handler, the deadline
// timer and Shutdown race for the same round.
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

	// A token that does not come back within commitTimeout means the
	// aggregator is wedged or stuck mid-Add; the round must not stall on
	// it. Deadness is sticky: the token holder may still be using the
	// aggregator, so it is never touched again.
	live := !s.dead.Load() && s.take(s.commitTimeout, nil)
	if !live {
		s.dead.Store(true)
		s.stats.partialCommits.Add(1)
	}

	// The round advances in the same critical section as the commit, so
	// a Model() snapshot never pairs the new global with the old round.
	next := round + 1
	s.mu.Lock()
	if live {
		s.agg.Commit(s.model.Flat())
	}
	s.acceptedRound.Store(0)
	s.round.Store(int64(next))
	s.mu.Unlock()

	if reason == commitDeadline {
		s.stats.roundsForcedByDeadline.Add(1)
	}
	if reason == commitShutdown || (s.cfg.MaxRounds > 0 && next > s.cfg.MaxRounds) {
		s.closed.Store(true)
		s.stopDeadline()
	} else {
		s.armDeadline()
	}
	if live {
		s.agg.Reset()
		clear(s.seen)
		s.queue.pending.Store(0)
		s.queue.commits.Add(1)
		s.token <- struct{}{}
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
