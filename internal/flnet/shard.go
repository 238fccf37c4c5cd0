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
// mutex, because every acquirer must also give up on a stop signal and
// the upload handler on a timeout. A handler decodes and gate-checks its
// update without any lock, admits itself against shardQueue (too many
// handlers already waiting -> 429 with Retry-After: backpressure instead
// of an unbounded pile-up), takes the token, streams the update into the
// aggregator, and returns the token.
//
// Round commit runs on whichever goroutine closes the round — the handler
// that added the MinUpdates-th update, the deadline timer, or Shutdown —
// entirely under the same token: holding it proves no Add is in flight
// and makes the closers take turns. The commit folds the aggregator into
// the global model, resets round state, advances the round, re-arms the
// deadline, and returns the token. It waits for the token as long as it
// takes, or until its stop channel closes: an Add that never returns is
// a bug to be seen (the round visibly stalls, uploads answer 503 after
// uploadTimeout), not a state to be written off.
//
// Lock order: the aggregator token, then Server.mu innermost and never
// held across a channel operation. The token holder owns deadlineTimer.
// A handler therefore returns the token before it commits the round it
// closed; an upload racing that handler can still land in the round.

// queueStats are the counters behind Stats.PerShard that no other Stats
// field already keeps.
type queueStats struct {
	depth    atomic.Int64
	enqueued atomic.Int64
	stale    atomic.Int64
	commits  atomic.Int64
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
// after returning the token. The gates and a warm Add allocate nothing
// but the seen set's amortized growth (TestHandlerAllocs, whose every
// upload comes from a new client).
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
			s.stats.duplicateUpdates.Add(1)
			return http.StatusAccepted, round, false
		}
		s.seen[clientID] = true
	}
	s.agg.Add(fedcore.Update{Params: params, Round: round, ClientID: clientID, Samples: 1})
	s.stats.accept(codec)
	return http.StatusAccepted, round, s.acceptedRound.Add(1) == int64(s.cfg.MinUpdates)
}

// commit closes round (any round, for commitShutdown): wait for the token
// or stop, commit the aggregator into the global model, reset round
// state, advance, return the token. It reports false only when stop
// closed first, with nothing touched. Stale calls — the round already
// advanced, or a deadline fired for a round that closed by threshold —
// are no-ops, which is what lets the threshold handler, the deadline
// timer and Shutdown race for the same round.
func (s *Server) commit(reason commitReason, round int, stop <-chan struct{}) bool {
	select {
	case <-s.token:
	case <-stop:
		return false
	}
	defer func() { s.token <- struct{}{} }()
	if s.closed.Load() {
		return true
	}
	if reason == commitShutdown {
		round = int(s.round.Load())
	} else if round != int(s.round.Load()) {
		return true
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
		return true
	}

	// The round advances in the same critical section as the commit, so
	// a Model() snapshot never pairs the new global with the old round,
	// and the stale fetch snapshot goes with them.
	next := round + 1
	s.mu.Lock()
	s.agg.Commit(s.model.Flat())
	s.acceptedRound.Store(0)
	s.round.Store(int64(next))
	s.fetch.Store(nil)
	s.mu.Unlock()
	s.agg.Reset()
	clear(s.seen)
	s.queue.commits.Add(1)

	if reason == commitDeadline {
		s.stats.roundsForcedByDeadline.Add(1)
	}
	if reason == commitShutdown || (s.cfg.MaxRounds > 0 && next > s.cfg.MaxRounds) {
		s.closed.Store(true)
		s.stopDeadline()
	} else {
		s.armDeadline()
	}
	return true
}

// armDeadline (re)arms the round deadline for the current round. The
// timer belongs to whoever holds the aggregator token (NewServer arms the
// first one before it fills the token).
func (s *Server) armDeadline() {
	s.stopDeadline()
	if s.cfg.RoundDeadline <= 0 || s.closed.Load() {
		return
	}
	round := int(s.round.Load())
	s.deadlineTimer = time.AfterFunc(s.cfg.RoundDeadline, func() {
		s.commit(commitDeadline, round, s.stopAll)
	})
}

func (s *Server) stopDeadline() {
	if s.deadlineTimer != nil {
		s.deadlineTimer.Stop()
		s.deadlineTimer = nil
	}
}
