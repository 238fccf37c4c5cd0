package flnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
)

// pushAs posts one raw-envelope update under the given client identity.
func pushAs(t *testing.T, url, id string, round int, k, d int, vals []float32) error {
	t.Helper()
	m := hdc.NewModel(k, d)
	m.SetFlat(vals)
	c := &Client{BaseURL: url, ID: id}
	return c.PushUpdate(context.Background(), round, m)
}

// idForShard finds a client identity that hashes onto the target shard.
func idForShard(target, shards int) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("client-%d", i)
		if fedcore.ShardIndex(id, shards) == target {
			return id
		}
	}
}

// Tentpole acceptance: the committed global model is bit-identical across
// shard counts, over the real HTTP path, for both a mean policy (bundle,
// integer-valued updates where float64 accumulation is exact) and a
// sorting policy (median, arbitrary floats, exactly permutation
// invariant). Upload order is shuffled differently per shard count, so
// this also proves order independence end to end.
func TestShardedServerBitIdentity(t *testing.T) {
	const k, d, nClients = 2, 16, 12
	type policy struct {
		name    string
		build   func() fedcore.Aggregator
		integer bool
	}
	policies := []policy{
		{"bundle", nil, true},
		{"median", func() fedcore.Aggregator { return &fedcore.Median{} }, false},
	}
	for _, pol := range policies {
		rng := rand.New(rand.NewSource(42))
		updates := make([][]float32, nClients)
		for i := range updates {
			vals := make([]float32, k*d)
			for j := range vals {
				if pol.integer {
					vals[j] = float32(rng.Intn(41) - 20)
				} else {
					vals[j] = float32(rng.NormFloat64())
				}
			}
			updates[i] = vals
		}
		var want []float32
		for _, shards := range []int{1, 4, 7} {
			cfg := ServerConfig{NumClasses: k, Dim: d, MinUpdates: nClients, Shards: shards}
			if pol.build != nil {
				cfg.Aggregator = pol.build()
			}
			srv, ts := newTestServer(t, cfg)
			order := rand.New(rand.NewSource(int64(shards))).Perm(nClients)
			for _, i := range order {
				if err := pushAs(t, ts.URL, fmt.Sprintf("edge-%03d", i), 1, k, d, updates[i]); err != nil {
					t.Fatalf("%s/%d shards: push %d: %v", pol.name, shards, i, err)
				}
			}
			if srv.Round() != 2 {
				t.Fatalf("%s/%d shards: round = %d, want 2", pol.name, shards, srv.Round())
			}
			m, _ := srv.Model()
			got := m.Flat()
			if want == nil {
				want = append([]float32(nil), got...)
				continue
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s/%d shards: global[%d] = %v, differs from 1-shard %v",
						pol.name, shards, j, got[j], want[j])
				}
			}
		}
	}
}

// A full shard queue is backpressure, not failure: the upload that found
// the shard wedged times out with 503, the next one bounces off the full
// queue with 429 + Retry-After, and the client surfaces that as
// ErrThrottled carrying the server's hint.
func TestShardQueueBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 100,
		Shards: 1, ShardQueue: 1,
	})
	srv.uploadTimeout = 80 * time.Millisecond
	srv.retryAfter = 3 * time.Second
	srv.KillShard(0) // the queue will never drain

	err := pushAs(t, ts.URL, "c1", 1, 1, 4, []float32{1, 1, 1, 1})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("first push against a dead shard: want 503, got %v", err)
	}
	err = pushAs(t, ts.URL, "c2", 1, 1, 4, []float32{1, 1, 1, 1})
	var thr ErrThrottled
	if !errors.As(err, &thr) {
		t.Fatalf("second push with a full queue: want ErrThrottled, got %v", err)
	}
	if thr.RetryAfter != 3*time.Second {
		t.Fatalf("Retry-After hint = %v, want 3s", thr.RetryAfter)
	}
	st := srv.Stats()
	if st.ShardTimeouts != 1 || st.UpdatesThrottled != 1 {
		t.Fatalf("timeouts/throttled = %d/%d, want 1/1", st.ShardTimeouts, st.UpdatesThrottled)
	}
	if st.PerShard[0].Dropped != 1 {
		t.Fatalf("shard 0 dropped = %d, want 1", st.PerShard[0].Dropped)
	}
	if Retryable(thr) != true {
		t.Fatal("ErrThrottled must be retryable")
	}
}

// Chaos acceptance: killing a shard mid-round must degrade the round to
// partial aggregation, not stall it. The deadline commit writes the dead
// shard off (its pending update is lost), folds the surviving shards,
// advances the round, records the death in /v1/stats — and the dead
// shard's clients are rerouted to a live shard next round.
func TestDeadShardDegradesToPartialAggregation(t *testing.T) {
	const shards = 4
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 100,
		Shards:        shards,
		RoundDeadline: 300 * time.Millisecond,
		CommitTimeout: 100 * time.Millisecond,
	})
	victim := 2
	victimID := idForShard(victim, shards)
	liveA := idForShard((victim+1)%shards, shards)
	liveB := idForShard((victim+2)%shards, shards)

	// One update lands on the doomed shard, two on live shards.
	if err := pushAs(t, ts.URL, victimID, 1, 1, 4, []float32{100, 100, 100, 100}); err != nil {
		t.Fatal(err)
	}
	if err := pushAs(t, ts.URL, liveA, 1, 1, 4, []float32{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := pushAs(t, ts.URL, liveB, 1, 1, 4, []float32{4, 4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	srv.KillShard(victim)

	// The round deadline fires, the barrier times out on the dead shard,
	// and the round commits without it instead of stalling.
	waitFor(t, func() bool { return srv.Round() == 2 })

	m, _ := srv.Model()
	for i, v := range m.Flat() {
		if v != 3 { // mean(2, 4): the dead shard's 100s were excluded
			t.Fatalf("partial global[%d] = %v, want 3", i, v)
		}
	}
	st := srv.Stats()
	if st.DeadShards != 1 || !st.PerShard[victim].Dead {
		t.Fatalf("stats must record the dead shard: %+v", st.PerShard)
	}
	if st.PartialCommits < 1 || st.RoundsForcedByDeadline < 1 {
		t.Fatalf("partial/forced = %d/%d, want >= 1 each",
			st.PartialCommits, st.RoundsForcedByDeadline)
	}

	// The dead shard's clients reroute to the next live shard and keep
	// contributing.
	if err := pushAs(t, ts.URL, victimID, 2, 1, 4, []float32{5, 5, 5, 5}); err != nil {
		t.Fatalf("rerouted client refused after shard death: %v", err)
	}
	if got := srv.Stats().UpdatesAccepted; got != 4 {
		t.Fatalf("UpdatesAccepted = %d, want 4 (rerouted update counted)", got)
	}
}

// Per-shard stats surface where updates landed and committed.
func TestStatsPerShardBreakdown(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 2, Shards: 3})
	a, b := idForShard(0, 3), idForShard(1, 3)
	if err := pushAs(t, ts.URL, a, 1, 1, 4, []float32{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := pushAs(t, ts.URL, b, 1, 1, 4, []float32{3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Shards != 3 || len(st.PerShard) != 3 {
		t.Fatalf("shards = %d, perShard = %d entries", st.Shards, len(st.PerShard))
	}
	if st.PerShard[0].Accepted != 1 || st.PerShard[1].Accepted != 1 || st.PerShard[2].Accepted != 0 {
		t.Fatalf("per-shard accepted: %+v", st.PerShard)
	}
	for i, ps := range st.PerShard {
		if ps.Commits != 1 {
			t.Fatalf("shard %d commits = %d, want 1 (barrier reached)", i, ps.Commits)
		}
		if ps.Pending != 0 || ps.Depth != 0 {
			t.Fatalf("shard %d pending/depth = %d/%d after commit", i, ps.Pending, ps.Depth)
		}
	}
	if srv.Round() != 2 {
		t.Fatalf("round = %d, want 2", srv.Round())
	}
}

// Regression test for the shutdown race found by fhdnn-lint goleak: the
// commit-wait loop in shardHandle used to select only on done and
// sh.ctl, so a shard that triggered the MinUpdates commit wedged forever
// if the coordinator exited on stopAll with the request still queued —
// leaking the shard goroutine and the upload handler blocked on m.reply.
// The server here is built white-box with NO coordinator running, which
// is exactly the state after that racy interleaving; the wait loop must
// release through its stopAll arm.
func TestShutdownRaceDoesNotWedgeShard(t *testing.T) {
	s := &Server{
		cfg:      ServerConfig{NumClasses: 2, Dim: 4, MinUpdates: 1},
		commitCh: make(chan commitReq, 4),
		stopAll:  make(chan struct{}),
		stats:    newServerStats(),
	}
	s.round.Store(1)
	sh := &shard{
		ctl:  make(chan parkReq),
		agg:  &fedcore.Median{},
		seen: make(map[string]bool),
	}
	m := shardAdd{
		round:    1,
		clientID: "client-0",
		params:   []float32{1, 2, 3, 4, 5, 6, 7, 8},
		reply:    make(chan addReply, 1),
	}
	handled := make(chan struct{})
	go func() {
		// MinUpdates-th update of the round: enqueues the commit request,
		// then enters the wait loop.
		s.shardHandle(sh, m)
		close(handled)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for len(s.commitCh) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("commit request never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	// The coordinator is gone; nobody will ever close req.done.
	close(s.stopAll)

	select {
	case r := <-m.reply:
		if r.verdict != vAccepted {
			t.Fatalf("verdict = %v, want vAccepted", r.verdict)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard goroutine wedged in the commit-wait loop after stopAll")
	}
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("shardHandle never returned after stopAll")
	}
}

// The coordinator's stopAll arm drains requests that raced the stop and
// closes their done channels, so waiters are released deterministically
// instead of relying on the stopAll broadcast alone. Works for both
// select outcomes: if coordinate picks the request first, commit() is a
// no-op on a closed server and done is closed on the normal path.
func TestCoordinateDrainReleasesQueuedRequests(t *testing.T) {
	s := &Server{
		commitCh: make(chan commitReq, 4),
		stopAll:  make(chan struct{}),
		stats:    newServerStats(),
	}
	s.round.Store(1)
	s.closed.Store(true)
	done := make(chan struct{})
	s.commitCh <- commitReq{reason: commitMinUpdates, round: 1, done: done}
	close(s.stopAll)
	go s.coordinate()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued commit request was not drained on shutdown")
	}
}

// routeShard must survive hostile identities and degenerate shard
// states: with no shards there is nothing to reduce the hash modulo,
// and a fully dead fleet must route to nil rather than spin or panic.
// The client identity is an attacker-chosen header, so this is the
// wire-taint boundary for shard routing.
func TestRouteShardDegenerateStates(t *testing.T) {
	empty := &Server{}
	if sh := empty.routeShard("client-1"); sh != nil {
		t.Fatal("zero shards must route to nil")
	}
	s := &Server{shards: []*shard{{id: 0}, {id: 1}, {id: 2}}}
	for _, id := range []string{"", "client-1", "\x00\xff arbitrary header bytes"} {
		sh := s.routeShard(id)
		if sh == nil {
			t.Fatalf("live fleet must route %q somewhere", id)
		}
		if want := fedcore.ShardIndex(id, 3); sh.id != want {
			t.Fatalf("%q routed to shard %d, want its hash shard %d", id, sh.id, want)
		}
	}
	for _, sh := range s.shards {
		sh.dead.Store(true)
	}
	if sh := s.routeShard("client-1"); sh != nil {
		t.Fatal("all-dead fleet must route to nil")
	}
}
