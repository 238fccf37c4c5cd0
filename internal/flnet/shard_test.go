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
// server's hint — and the first times out with 503.
func TestShardQueueBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 100})
	srv.shardQueue = 1
	srv.uploadTimeout = 500 * time.Millisecond
	srv.retryAfter = 3 * time.Second
	<-srv.token // wedge the aggregator: somebody is stuck mid-Add
	defer func() { srv.token <- struct{}{} }()

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

// Chaos acceptance: an aggregator wedged mid-round must not stall the
// federation. The deadline commit cannot get the token, writes the
// aggregator off (its pending update is lost), carries the previous
// global forward, advances the round and records the death in /v1/stats;
// every later upload is answered 503.
func TestDeadAggregatorCarriesGlobalForward(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 100,
		RoundDeadline: 300 * time.Millisecond,
	})
	// Written under the round-close token, so the armed deadline's commit
	// is ordered after the write.
	<-srv.closing
	srv.commitTimeout = 50 * time.Millisecond
	srv.closing <- struct{}{}
	if err := pushAs(t, ts.URL, "a", 1, 1, 4, []float32{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	<-srv.token // wedge the aggregator; the token never comes back

	waitFor(t, func() bool { return srv.Round() == 2 })
	m, _ := srv.Model()
	for i, v := range m.Flat() {
		if v != 0 {
			t.Fatalf("global[%d] = %v, want the previous global 0 carried forward", i, v)
		}
	}
	st := srv.Stats()
	if st.PartialCommits != 1 || st.DeadShards != 1 || !st.PerShard[0].Dead {
		t.Fatalf("partial/dead = %d/%d (%+v), want 1/1", st.PartialCommits, st.DeadShards, st.PerShard)
	}

	err := pushAs(t, ts.URL, "b", 2, 1, 4, []float32{5, 5, 5, 5})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("push to a dead aggregator: want 503, got %v", err)
	}
	if want := "flnet: the aggregator is dead"; he.Body != want {
		t.Fatalf("503 body = %q, want %q", he.Body, want)
	}
	if st := srv.Stats(); st.ShardTimeouts != 1 || st.UpdatesAccepted != 1 {
		t.Fatalf("timeouts/accepted = %d/%d, want 1/1", st.ShardTimeouts, st.UpdatesAccepted)
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
