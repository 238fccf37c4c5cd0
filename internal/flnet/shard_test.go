package flnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fhdnn/internal/compress"
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

// Too many handlers on one shard is backpressure, not failure: with
// ShardQueue 1 the first upload parks waiting for the killed shard's
// token, the second bounces off the admission bound with 429 +
// Retry-After — surfaced by the client as ErrThrottled carrying the
// server's hint — and the first times out with 503.
func TestShardQueueBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 100,
		Shards: 1, ShardQueue: 1,
	})
	srv.uploadTimeout = 500 * time.Millisecond
	srv.retryAfter = 3 * time.Second
	srv.KillShard(0) // the token never comes back

	first := make(chan error, 1)
	go func() { first <- pushAs(t, ts.URL, "c1", 1, 1, 4, []float32{1, 1, 1, 1}) }()
	waitFor(t, func() bool { return srv.Stats().PerShard[0].Depth == 1 })

	err := pushAs(t, ts.URL, "c2", 1, 1, 4, []float32{1, 1, 1, 1})
	var thr ErrThrottled
	if !errors.As(err, &thr) {
		t.Fatalf("second push over the admission bound: want ErrThrottled, got %v", err)
	}
	if thr.RetryAfter != 3*time.Second {
		t.Fatalf("Retry-After hint = %v, want 3s", thr.RetryAfter)
	}
	if Retryable(thr) != true {
		t.Fatal("ErrThrottled must be retryable")
	}
	var he *HTTPError
	if err := <-first; !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("first push against a dead shard: want 503, got %v", err)
	}
	st := srv.Stats()
	if st.ShardTimeouts != 1 || st.UpdatesThrottled != 1 {
		t.Fatalf("timeouts/throttled = %d/%d, want 1/1", st.ShardTimeouts, st.UpdatesThrottled)
	}
	if ps := st.PerShard[0]; ps.Dropped != 1 || ps.Enqueued != 1 || ps.Depth != 0 {
		t.Fatalf("shard 0 dropped/enqueued/depth = %d/%d/%d, want 1/1/0", ps.Dropped, ps.Enqueued, ps.Depth)
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

// postDirect drives the update handler on the caller's goroutine — no
// network, so no goroutine but the caller's is involved — and returns the
// status code.
func postDirect(srv *Server, id string, round int, vals []float32) int {
	body, err := fedcore.EncodeEnvelope(compress.Raw{}, vals)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/update?round=%d", round), bytes.NewReader(body))
	req.Header.Set(ClientHeader, id)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// The server owns no goroutine: aggregation and the round commit run on
// the handler's, so neither a served round nor a server that is never
// Shutdown leaves one behind. (Goroutines of earlier tests may still be
// winding down, so the count may fall but must not rise.)
func TestServerStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := NewServer(ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{idForShard(0, 4), idForShard(1, 4)} {
		if code := postDirect(srv, id, 1, modelWith(1, 4, float32(i)).Flat()); code != http.StatusAccepted {
			t.Fatalf("push %d: status %d", i, code)
		}
	}
	if srv.Round() != 2 {
		t.Fatalf("round = %d, want 2", srv.Round())
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a running server holds %d goroutines", n-before)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a shut-down server holds %d goroutines", n-before)
	}
}

// An upload answered 503 is gone: when its shard recovers the update is
// not folded behind the client's back, so the client's retry cannot
// double-count and ShardTimeouts never overlaps UpdatesAccepted.
func TestTimedOutUploadIsNeverFolded(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	srv.uploadTimeout = 50 * time.Millisecond
	sh := srv.shards[0]
	<-sh.token // wedge the shard: somebody is stuck mid-Add
	err := pushAs(t, ts.URL, "slow", 1, 1, 4, []float32{100, 100, 100, 100})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("push against a wedged shard: want 503, got %v", err)
	}
	sh.token <- struct{}{} // the shard recovers

	if err := pushAs(t, ts.URL, "a", 1, 1, 4, []float32{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := pushAs(t, ts.URL, "b", 1, 1, 4, []float32{4, 4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	if srv.Round() != 2 {
		t.Fatalf("round = %d, want 2", srv.Round())
	}
	m, _ := srv.Model()
	for i, v := range m.Flat() {
		if v != 3 { // mean(2, 4): the 503'd 100s never arrived
			t.Fatalf("global[%d] = %v, want 3", i, v)
		}
	}
	if st := srv.Stats(); st.UpdatesAccepted != 2 || st.ShardTimeouts != 1 {
		t.Fatalf("accepted/timeouts = %d/%d, want 2/1", st.UpdatesAccepted, st.ShardTimeouts)
	}
}

// The threshold handler and the deadline timer race to close the same
// round, hundreds of times: whoever wins, the round advances exactly once,
// every 202'd update is in that round's bundle exactly once, every other
// upload was told 409, and no healthy shard is written off.
func TestThresholdDeadlineRace(t *testing.T) {
	const rounds, clients, shards, d = 200, 4, 2, 8
	const deadline = 3 * time.Millisecond
	srv, err := NewServer(ServerConfig{
		NumClasses: 1, Dim: d, MinUpdates: clients, Shards: shards, RoundDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	rng := rand.New(rand.NewSource(1))
	var accepted, stale, deadlineRounds int64
	for r := 1; r <= rounds; r++ {
		// The last client straddles the deadline, so both closers get
		// their turn and some rounds are a genuine photo finish.
		lastDelay := time.Duration(rng.Int63n(int64(2 * deadline)))
		codes := make([]int, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if c == clients-1 {
					time.Sleep(lastDelay)
				}
				codes[c] = postDirect(srv, fmt.Sprintf("c%d", c), r, modelWith(1, d, float32(r*clients+c)).Flat())
			}(c)
		}
		wg.Wait()

		var sum float64
		n := 0
		for c, code := range codes {
			switch code {
			case http.StatusAccepted:
				sum += float64(r*clients + c)
				n++
			case http.StatusConflict:
				stale++
			default:
				t.Fatalf("round %d client %d: status %d, want 202 or 409", r, c, code)
			}
		}
		accepted += int64(n)
		if n < clients {
			deadlineRounds++ // short of MinUpdates: only the deadline can have closed it
		}
		m, got := srv.Model()
		if got != r+1 {
			t.Fatalf("after round %d's uploads the server is at round %d, want %d", r, got, r+1)
		}
		want := float32(sum * (1 / float64(n)))
		for i, v := range m.Flat() {
			if v != want {
				t.Fatalf("round %d global[%d] = %v, want %v (mean of the %d accepted)", r, i, v, want, n)
			}
		}
	}
	st := srv.Stats()
	if st.UpdatesAccepted != accepted || st.UpdatesRejected != stale {
		t.Fatalf("accepted/rejected = %d/%d, want %d/%d", st.UpdatesAccepted, st.UpdatesRejected, accepted, stale)
	}
	if st.DeadShards != 0 || st.PartialCommits != 0 || st.ShardTimeouts != 0 {
		t.Fatalf("healthy shards written off: %+v", st)
	}
	for _, ps := range st.PerShard {
		if ps.Commits != rounds {
			t.Fatalf("shard %d saw %d commits for %d rounds", ps.Shard, ps.Commits, rounds)
		}
	}
	forced := st.RoundsForcedByDeadline
	if forced < deadlineRounds || forced > rounds {
		t.Fatalf("forced = %d, want between %d (rounds closed short) and %d", forced, deadlineRounds, rounds)
	}
	t.Logf("%d rounds: %d closed by deadline, %d by threshold", rounds, forced, rounds-forced)
}

// A model snapshot must carry the round it belongs to. Every round here
// commits the constant r, so the global at round r+1 is all r; a fetch
// that pairs the new global with the old round would send a client off to
// train from round r+1's model and upload into round r.
func TestModelSnapshotConsistent(t *testing.T) {
	const rounds, d = 1000, 4096
	srv, err := NewServer(ServerConfig{NumClasses: 1, Dim: d, MinUpdates: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	stop := make(chan struct{})
	var mismatched atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if m, round := srv.Model(); m.Flat()[0] != float32(round-1) {
					mismatched.Add(1)
				}
			}
		}()
	}
	for r := 1; r <= rounds; r++ {
		if code := postDirect(srv, "c", r, modelWith(1, d, float32(r)).Flat()); code != http.StatusAccepted {
			t.Fatalf("round %d: status %d", r, code)
		}
	}
	close(stop)
	wg.Wait()
	if n := mismatched.Load(); n != 0 {
		t.Fatalf("%d snapshots paired a global model with the wrong round", n)
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
