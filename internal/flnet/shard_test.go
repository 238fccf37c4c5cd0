package flnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
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

// Too many handlers waiting on the aggregator is backpressure, not
// failure: with a queue bound of 1 the first upload parks waiting for the
// wedged token, the second bounces off the admission bound with 429 +
// Retry-After — surfaced by the client as ErrThrottled carrying the
// server's hint — and the first times out with 503. Once the aggregator
// recovers, an upload and its duplicate land, and the per-shard block
// reads the same counts as the top-level stats and /v1/round.
func TestShardQueueBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 100})
	srv.shardQueue = 1
	srv.uploadTimeout = 500 * time.Millisecond
	srv.retryAfter = 3 * time.Second
	<-srv.token // wedge the aggregator: somebody is stuck mid-Add

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
		t.Fatalf("first push against a wedged aggregator: want 503, got %v", err)
	}
	st := srv.Stats()
	if st.ShardTimeouts != 1 || st.UpdatesThrottled != 1 {
		t.Fatalf("timeouts/throttled = %d/%d, want 1/1", st.ShardTimeouts, st.UpdatesThrottled)
	}
	if ps := st.PerShard[0]; ps.Dropped != 1 || ps.Enqueued != 1 || ps.Depth != 0 {
		t.Fatalf("queue dropped/enqueued/depth = %d/%d/%d, want 1/1/0", ps.Dropped, ps.Enqueued, ps.Depth)
	}

	srv.token <- struct{}{} // the aggregator recovers
	for i := 0; i < 2; i++ {
		if err := pushAs(t, ts.URL, "c3", 1, 1, 4, []float32{1, 1, 1, 1}); err != nil {
			t.Fatalf("push %d after recovery: %v", i, err)
		}
	}
	st = srv.Stats()
	if ps := st.PerShard[0]; ps.Accepted != 1 || ps.Duplicates != 1 || ps.Dropped != 1 || ps.Pending != 1 {
		t.Fatalf("queue accepted/duplicates/dropped/pending = %d/%d/%d/%d, want 1/1/1/1",
			ps.Accepted, ps.Duplicates, ps.Dropped, ps.Pending)
	}
	checkQueueMirrors(t, &Client{BaseURL: ts.URL}, st)
}

// A crowd bounced off the admission bound must wait out the server's
// Retry-After hint, not its own 1 ms backoff, and still land in the round
// exactly once when the aggregator frees up. Two clean clients fill the
// queue behind a wedged token, the other six answer 429; the poisoner's NaN
// is refused by the quarantine gate before it is ever queued. Raw and
// float16 clients alternate, on small integers both codecs carry exactly.
func TestThrottledClientsRetryPastBackpressure(t *testing.T) {
	const clients, d = 8, 4
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: d, MinUpdates: clients})
	srv.shardQueue = 2
	<-srv.token // wedge the aggregator: somebody is stuck mid-Add

	retry := &RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond}
	// Each client's transport runs on that client's goroutine.
	var throttled [clients]bool
	var took [clients]time.Duration
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		vals := make([]float32, d)
		for j := range vals {
			vals[j] = float32(i + j)
		}
		var codec compress.Codec = compress.Raw{}
		if i%2 == 1 {
			codec = compress.Float16{}
		}
		flagging := roundTripFunc(func(req *http.Request) (*http.Response, error) {
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err == nil && resp.StatusCode == http.StatusTooManyRequests {
				throttled[i] = true
			}
			return resp, err
		})
		c := &Client{BaseURL: ts.URL, ID: fmt.Sprintf("c%d", i), Codec: codec, Retry: retry,
			HTTPClient: &http.Client{Transport: flagging}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := hdc.NewModel(1, d)
			m.SetFlat(vals)
			start := time.Now()
			errs[i] = c.PushUpdate(context.Background(), 1, m)
			took[i] = time.Since(start)
		}(i)
	}
	poison := modelWith(1, d, 1)
	poison.Flat()[1] = float32(math.NaN())
	poisonErr := (&Client{BaseURL: ts.URL, ID: "poisoner", Retry: retry}).PushUpdate(context.Background(), 1, poison)

	waitFor(t, func() bool { return srv.Stats().UpdatesThrottled >= clients-2 })
	srv.token <- struct{}{} // the aggregator recovers
	wg.Wait()

	var q ErrQuarantined
	if !errors.As(poisonErr, &q) {
		t.Fatalf("NaN poisoner: want ErrQuarantined, got %v", poisonErr)
	}
	nThrottled := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean client %d: %v", i, err)
		}
		if throttled[i] {
			nThrottled++
			if took[i] < time.Second {
				t.Fatalf("throttled client %d retried after %v, under the 1s Retry-After floor", i, took[i])
			}
		}
	}
	if nThrottled < clients-2 {
		t.Fatalf("%d clients saw a 429, want at least %d", nThrottled, clients-2)
	}
	st := srv.Stats()
	if st.UpdatesAccepted != clients || st.DuplicateUpdates != 0 {
		t.Fatalf("accepted/duplicates = %d/%d, want %d/0", st.UpdatesAccepted, st.DuplicateUpdates, clients)
	}
	m, round := srv.Model()
	if round != 2 {
		t.Fatalf("round = %d, want 2", round)
	}
	for j, v := range m.Flat() {
		if want := float32(clients-1)/2 + float32(j); v != want {
			t.Fatalf("global[%d] = %v, want the exact mean %v", j, v, want)
		}
	}
}

// wedgeWithPending takes the aggregator token and, holding it the way an
// Add that never returns would, folds one update from client "a" into
// round 1. The caller owns the token afterwards.
func wedgeWithPending(t *testing.T, srv *Server, vals []float32) {
	t.Helper()
	<-srv.token
	if status, _, _ := srv.aggregate(1, "a", "raw", vals); status != http.StatusAccepted {
		t.Fatalf("fold under the wedged token: status %d", status)
	}
}

// Chaos acceptance: an Add that holds the token far past any commit
// timeout stalls the round in plain sight — uploads answer 503, the
// pending update is still counted, the deadline cannot advance the round
// — and the federation picks up where it stopped once the token comes
// back: the stalled round commits the exact mean of what it folded, and
// the next round accepts and commits a fresh upload.
func TestWedgedAddStallsThenRecovers(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 100,
		RoundDeadline: 50 * time.Millisecond,
	})
	srv.uploadTimeout = 100 * time.Millisecond
	wedgeWithPending(t, srv, []float32{2, 4, 6, 8})
	wedged := time.Now()

	err := pushAs(t, ts.URL, "b", 1, 1, 4, []float32{5, 5, 5, 5})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("push against a wedged Add: want 503, got %v", err)
	}
	time.Sleep(2500*time.Millisecond - time.Since(wedged))
	st := srv.Stats()
	if st.ShardTimeouts != 1 || st.PerShard[0].Pending != 1 || st.Round != 1 {
		t.Fatalf("timeouts/pending/round = %d/%d/%d while wedged, want 1/1/1",
			st.ShardTimeouts, st.PerShard[0].Pending, st.Round)
	}

	srv.token <- struct{}{} // the Add returns
	waitFor(t, func() bool { return srv.Round() == 2 })
	m, _ := srv.Model()
	for i, v := range m.Flat() {
		if want := float32(2 * (i + 1)); v != want {
			t.Fatalf("global[%d] = %v, want the stalled round's mean %v", i, v, want)
		}
	}
	if err := pushAs(t, ts.URL, "c", 2, 1, 4, []float32{1, 1, 1, 1}); err != nil {
		t.Fatalf("push after recovery: %v", err)
	}
	waitFor(t, func() bool { return srv.Round() == 3 })
	m, _ = srv.Model()
	for i, v := range m.Flat() {
		if v != 1 {
			t.Fatalf("global[%d] = %v after the next round, want 1", i, v)
		}
	}
	if st := srv.Stats(); st.UpdatesAccepted != 2 || st.PerShard[0].Commits != 2 {
		t.Fatalf("accepted/commits = %d/%d, want 2/2", st.UpdatesAccepted, st.PerShard[0].Commits)
	}
}

// Shutdown honours its context: with an Add that never returns the
// token, it gives up when ctx ends, reports why, and still closes the
// server to uploads.
func TestShutdownReturnsWhileAddWedged(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 100})
	wedgeWithPending(t, srv, []float32{1, 1, 1, 1})
	defer func() { srv.token <- struct{}{} }()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > time.Second {
		t.Fatalf("Shutdown = %v after %v, want DeadlineExceeded within 1s", err, took)
	}
	if !srv.Closed() {
		t.Fatal("server still open after Shutdown gave up on the token")
	}
	err = pushAs(t, ts.URL, "b", 1, 1, 4, []float32{1, 1, 1, 1})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusGone {
		t.Fatalf("push after Shutdown: want 410, got %v", err)
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
	srv, err := NewServer(ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"a", "b"} {
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

// An upload answered 503 is gone: when the aggregator recovers the update is
// not folded behind the client's back, so the client's retry cannot
// double-count and ShardTimeouts never overlaps UpdatesAccepted.
func TestTimedOutUploadIsNeverFolded(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	srv.uploadTimeout = 50 * time.Millisecond
	<-srv.token // wedge the aggregator: somebody is stuck mid-Add
	err := pushAs(t, ts.URL, "slow", 1, 1, 4, []float32{100, 100, 100, 100})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("push against a wedged aggregator: want 503, got %v", err)
	}
	srv.token <- struct{}{} // the aggregator recovers

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
// upload was told 409, and the healthy aggregator is never written off.
func TestThresholdDeadlineRace(t *testing.T) {
	const rounds, clients, d = 200, 4, 8
	const deadline = 3 * time.Millisecond
	srv, err := NewServer(ServerConfig{
		NumClasses: 1, Dim: d, MinUpdates: clients, RoundDeadline: deadline})
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
		t.Fatalf("healthy aggregator written off: %+v", st)
	}
	if c := st.PerShard[0].Commits; c != rounds {
		t.Fatalf("aggregator saw %d commits for %d rounds", c, rounds)
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
	srv, err := NewServer(ServerConfig{NumClasses: 1, Dim: d, MinUpdates: 1})
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
