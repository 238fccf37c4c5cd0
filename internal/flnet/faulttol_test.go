package flnet

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fhdnn/internal/faults"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

func modelWith(k, d int, fill float32) *hdc.Model {
	m := hdc.NewModel(k, d)
	flat := make([]float32, k*d)
	for i := range flat {
		flat[i] = fill
	}
	m.SetFlat(flat)
	return m
}

func TestQuarantineNonFinite(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 1})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	for _, poison := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		u := modelWith(1, 4, 1)
		u.Flat()[2] = poison
		err := c.PushUpdate(ctx, 1, u)
		var q ErrQuarantined
		if !errors.As(err, &q) {
			t.Fatalf("poison %v: expected ErrQuarantined, got %v", poison, err)
		}
		if q.Round != 1 || q.Error() == "" {
			t.Fatalf("quarantine error %+v", q)
		}
	}
	if srv.Round() != 1 {
		t.Fatal("quarantined updates must not advance the round")
	}
	st := srv.Stats()
	if st.UpdatesQuarantined != 3 || st.UpdatesAccepted != 0 {
		t.Fatalf("stats %+v, want 3 quarantined 0 accepted", st)
	}
	// a clean update still goes through
	if err := c.PushUpdate(ctx, 1, modelWith(1, 4, 2)); err != nil {
		t.Fatal(err)
	}
	m, _ := srv.Model()
	for _, v := range m.Flat() {
		if v != 2 {
			t.Fatalf("global model %v polluted", m.Flat())
		}
	}
}

func TestQuarantineNormExploded(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 1, MaxUpdateNorm: 100})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	err := c.PushUpdate(ctx, 1, modelWith(1, 4, 1e6)) // norm 2e6 >> 100
	var q ErrQuarantined
	if !errors.As(err, &q) {
		t.Fatalf("expected ErrQuarantined, got %v", err)
	}
	// norm exactly at the limit passes (limit is exclusive)
	if err := c.PushUpdate(ctx, 1, modelWith(1, 4, 50)); err != nil { // norm 100
		t.Fatal(err)
	}
	if st := srv.Stats(); st.UpdatesQuarantined != 1 || st.UpdatesAccepted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDuplicateUpdateDeduped(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	ctx := context.Background()
	a := &Client{BaseURL: ts.URL, ID: "client-a"}
	b := &Client{BaseURL: ts.URL, ID: "client-b"}

	if err := a.PushUpdate(ctx, 1, modelWith(1, 4, 2)); err != nil {
		t.Fatal(err)
	}
	// a retried upload must look like success but not aggregate twice
	if err := a.PushUpdate(ctx, 1, modelWith(1, 4, 2)); err != nil {
		t.Fatalf("duplicate must be accepted idempotently, got %v", err)
	}
	if srv.Round() != 1 {
		t.Fatal("duplicate counted toward MinUpdates")
	}
	if err := b.PushUpdate(ctx, 1, modelWith(1, 4, 4)); err != nil {
		t.Fatal(err)
	}
	if srv.Round() != 2 {
		t.Fatalf("round %d, want 2", srv.Round())
	}
	m, _ := srv.Model()
	for _, v := range m.Flat() {
		if v != 3 { // mean of 2 and 4; a double-counted dup would give 8/3
			t.Fatalf("aggregate %v, want all 3", m.Flat())
		}
	}
	st := srv.Stats()
	if st.DuplicateUpdates != 1 || st.UpdatesAccepted != 2 {
		t.Fatalf("stats %+v", st)
	}

	// dedupe state resets per round: client-a may contribute again
	if err := a.PushUpdate(ctx, 2, modelWith(1, 4, 1)); err != nil {
		t.Fatalf("round 2 contribution rejected: %v", err)
	}
}

func TestRoundDeadlineForcesPartialAggregation(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 3, RoundDeadline: 40 * time.Millisecond})
	c := &Client{BaseURL: ts.URL}
	if err := c.PushUpdate(context.Background(), 1, modelWith(1, 4, 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Round() == 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Round() != 2 {
		t.Fatalf("round %d, deadline did not force aggregation", srv.Round())
	}
	m, _ := srv.Model()
	for _, v := range m.Flat() {
		if v != 5 {
			t.Fatalf("partial aggregate %v, want the lone update", m.Flat())
		}
	}
	if st := srv.Stats(); st.RoundsForcedByDeadline != 1 {
		t.Fatalf("stats %+v, want 1 forced round", st)
	}
}

func TestRoundDeadlineCarriesEmptyRoundForward(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 2, RoundDeadline: 15 * time.Millisecond})
	time.Sleep(80 * time.Millisecond) // several deadlines pass with no updates
	if r := srv.Round(); r != 1 {
		t.Fatalf("round %d, empty rounds must not advance", r)
	}
	if srv.Closed() {
		t.Fatal("server must not close on empty deadlines")
	}
	if st := srv.Stats(); st.RoundsForcedByDeadline != 0 {
		t.Fatalf("stats %+v, empty rounds are carried, not forced", st)
	}
}

func TestShutdownClosesRoundCleanly(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 3})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	if err := c.PushUpdate(ctx, 1, modelWith(1, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !srv.Closed() {
		t.Fatal("shutdown must close the server")
	}
	m, _ := srv.Model()
	for _, v := range m.Flat() {
		if v != 7 {
			t.Fatalf("pending update lost on shutdown: %v", m.Flat())
		}
	}
	// further updates answer 410 Gone
	err := c.PushUpdate(ctx, 2, modelWith(1, 4, 1))
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusGone {
		t.Fatalf("post-shutdown push: %v, want 410", err)
	}
	// idempotent
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 1})
	// 60% of requests die at the transport; 10 attempts make success
	// overwhelmingly likely, deterministically under the fixed seed.
	tr := faults.NewTransport(faults.Config{FailRate: 0.6, Seed: 42})
	c := &Client{
		BaseURL:    ts.URL,
		HTTPClient: &http.Client{Transport: tr},
		Retry:      &RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond},
	}
	ctx := context.Background()
	if _, err := c.Round(ctx); err != nil {
		t.Fatalf("round with retries: %v", err)
	}
	if _, _, err := c.FetchModel(ctx); err != nil {
		t.Fatalf("fetch with retries: %v", err)
	}
	if err := c.PushUpdate(ctx, 1, modelWith(1, 4, 1)); err != nil {
		t.Fatalf("push with retries: %v", err)
	}
	if st := tr.Stats(); st.Failed == 0 {
		t.Fatalf("fault transport injected nothing (stats %+v); test proves nothing", st)
	}
}

func TestClientRetriesTruncatedModelFetch(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{NumClasses: 2, Dim: 64, MinUpdates: 1})
	tr := faults.NewTransport(faults.Config{TruncateRate: 0.5, Seed: 3})
	c := &Client{
		BaseURL:    ts.URL,
		HTTPClient: &http.Client{Transport: tr},
		Retry:      &RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond},
	}
	for i := 0; i < 8; i++ {
		if _, _, err := c.FetchModel(context.Background()); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	if st := tr.Stats(); st.Truncated == 0 {
		t.Fatal("no truncations injected; test proves nothing")
	}
}

// terminal 4xx answers must not be retried: they would fail identically.
func TestRetrySkipsTerminalErrors(t *testing.T) {
	var posts atomic.Int64
	_, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	counting := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.Method == http.MethodPost {
			posts.Add(1)
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	c := &Client{
		BaseURL:    ts.URL,
		HTTPClient: &http.Client{Transport: counting},
		Retry:      &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
	}
	// stale round -> 409, exactly one wire attempt
	err := c.PushUpdate(context.Background(), 99, modelWith(1, 4, 1))
	if _, ok := err.(ErrStaleRound); !ok {
		t.Fatalf("want ErrStaleRound, got %v", err)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("stale push attempted %d times, want 1", n)
	}
	// quarantine -> 422, exactly one wire attempt
	posts.Store(0)
	u := modelWith(1, 4, 1)
	u.Flat()[0] = float32(math.NaN())
	err = c.PushUpdate(context.Background(), 1, u)
	var q ErrQuarantined
	if !errors.As(err, &q) {
		t.Fatalf("want ErrQuarantined, got %v", err)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("quarantined push attempted %d times, want 1", n)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// Satellite: the stale-round retry path in Participate. A rival update
// slips in while our trainer's POST is in flight, so the trainer's first
// upload bounces 409 and it must refetch, retrain, and land in the next
// round.
func TestParticipateStaleRoundRetry(t *testing.T) {
	shards, labels, _, _, k, d := heldOutClusters(t, 1, 3)
	srv, ts := newTestServer(t, ServerConfig{NumClasses: k, Dim: d, MinUpdates: 1, MaxRounds: 2})

	var raced atomic.Bool
	interloper := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.Method == http.MethodPost && raced.CompareAndSwap(false, true) {
			// advance the round under the trainer's feet
			rival := &Client{BaseURL: ts.URL}
			if err := rival.PushUpdate(req.Context(), srv.Round(), hdc.NewModel(k, d)); err != nil {
				t.Errorf("interloper push: %v", err)
			}
		}
		return http.DefaultTransport.RoundTrip(req)
	})

	lt := &LocalTrainer{
		Client:  &Client{BaseURL: ts.URL, ID: "trainer", HTTPClient: &http.Client{Transport: interloper}},
		Encoded: shards[0],
		Labels:  labels[0],
		Epochs:  1,
		Poll:    2 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	contributed, err := lt.Participate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !raced.Load() {
		t.Fatal("stale race never triggered; test proves nothing")
	}
	// the interloper consumed round 1, so the trainer's 409-bounced
	// update must have landed in round 2
	if contributed != 1 {
		t.Fatalf("contributed %d rounds, want 1", contributed)
	}
	if !srv.Closed() {
		t.Fatal("server should have closed after MaxRounds")
	}
	if st := srv.Stats(); st.UpdatesRejected == 0 {
		t.Fatalf("stats %+v, want the stale rejection recorded", st)
	}
}

// Participate survives a server "restart": a replacement server whose
// round counter rewound below what the client already saw must be
// rejoined from its new epoch, not deadlock the client waiting for a
// round number the new server will never reach.
func TestParticipateSurvivesServerRestart(t *testing.T) {
	shards, labels, _, _, k, d := heldOutClusters(t, 1, 3)
	first, err := NewServer(ServerConfig{NumClasses: k, Dim: d, MinUpdates: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewServer(ServerConfig{NumClasses: k, Dim: d, MinUpdates: 2, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	var swapped atomic.Bool
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if swapped.Load() {
			second.Handler().ServeHTTP(w, r)
		} else {
			first.Handler().ServeHTTP(w, r)
		}
	})
	ts := newRawServer(t, mux)

	lt := &LocalTrainer{
		Client:  &Client{BaseURL: ts, ID: "restarter"},
		Encoded: shards[0], Labels: labels[0], Epochs: 1, Poll: 2 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	done := make(chan struct{})
	var contributed int
	var perr error
	go func() {
		defer close(done)
		contributed, perr = lt.Participate(ctx)
	}()

	helper := &Client{BaseURL: ts, ID: "helper"}
	// Round 1 on the first server: trainer + helper close it. The
	// trainer then contributes to round 2 and waits at lastRound=2.
	waitFor(t, func() bool { return first.Stats().UpdatesAccepted == 1 })
	if err := helper.PushUpdate(ctx, 1, hdc.NewModel(k, d)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return first.Stats().UpdatesAccepted == 3 })

	// "Restart": swap in a fresh server at round 1 < the trainer's 2.
	swapped.Store(true)
	waitFor(t, func() bool { return second.Stats().UpdatesAccepted == 1 })
	if err := helper.PushUpdate(ctx, 1, hdc.NewModel(k, d)); err != nil {
		t.Fatal(err)
	}
	<-done
	if perr != nil {
		t.Fatal(perr)
	}
	if !second.Closed() {
		t.Fatal("second server should have closed")
	}
	// rounds 1 and 2 on the first server, round 1 on the second
	if contributed != 3 {
		t.Fatalf("contributed %d rounds, want 3", contributed)
	}
}

// A server whose model does not fit the device's data — another D, or
// fewer classes than the local labels name — ends Participate with an
// error before anything is trained or uploaded.
func TestParticipateRejectsMismatchedModel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k, d   int
		labels []int
	}{
		{"server D larger", 3, 16, []int{0, 1, 2}},
		{"server D smaller", 3, 4, []int{0, 1, 2}},
		{"label >= K", 2, 8, []int{0, 1, 2}},
		{"negative label", 3, 8, []int{0, -1, 2}},
	} {
		srv, ts := newTestServer(t, ServerConfig{NumClasses: tc.k, Dim: tc.d, MinUpdates: 1})
		lt := &LocalTrainer{
			Client:  &Client{BaseURL: ts.URL, ID: "misfit"},
			Encoded: tensor.New(3, 8),
			Labels:  tc.labels,
			Epochs:  1,
			Poll:    2 * time.Millisecond,
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		contributed, err := lt.Participate(ctx)
		cancel()
		if err == nil || errors.Is(err, context.DeadlineExceeded) || contributed != 0 {
			t.Fatalf("%s: Participate = %d, %v; want an immediate shape error", tc.name, contributed, err)
		}
		if st := srv.Stats(); st.UpdatesAccepted != 0 || st.BytesReceived != 0 {
			t.Fatalf("%s: an upload reached the server: %+v", tc.name, st)
		}
	}
}

// A server that only ever answers 503 is absorbed failureBudget times;
// the next consecutive failure ends Participate with an error wrapping
// the last 503.
func TestParticipateGivesUpAfterFailureBudget(t *testing.T) {
	var rounds atomic.Int64
	url := newRawServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/round" {
			rounds.Add(1)
		}
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	lt := &LocalTrainer{
		Client:  &Client{BaseURL: url, ID: "patient"},
		Encoded: tensor.New(1, 4),
		Labels:  []int{0},
		Epochs:  1,
		Poll:    time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	contributed, err := lt.Participate(ctx)
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable || contributed != 0 {
		t.Fatalf("Participate = %d, %v; want 0 and an error wrapping the 503", contributed, err)
	}
	if got := rounds.Load(); got != failureBudget+1 {
		t.Fatalf("%d round requests, want failureBudget+1 = %d", got, failureBudget+1)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newRawServer(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// Satellite: hammer handleUpdate concurrently; meaningful under
// `go test -race` (16 goroutines share the server's mutex-guarded state)
// and checks the counters stay consistent under contention.
func TestConcurrentUpdateStress(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 4, MaxUpdateNorm: 1000})
	ctx := context.Background()
	const workers, perWorker = 16, 25

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &Client{BaseURL: ts.URL}
			if w%2 == 0 {
				c.ID = "worker" // half the workers share an identity: dedupe contention
			}
			for i := 0; i < perWorker; i++ {
				u := modelWith(1, 4, float32(w))
				if w%5 == 0 {
					u.Flat()[0] = float32(math.Inf(1)) // poison stream
				}
				// rounds race forward underneath us; any outcome
				// (202/409/410/422) is legal, panics and races are not
				_ = c.PushUpdate(ctx, srv.Round(), u)
			}
		}(w)
	}
	wg.Wait()

	st := srv.Stats()
	total := st.UpdatesAccepted + st.UpdatesRejected + st.UpdatesQuarantined + st.DuplicateUpdates
	if total != workers*perWorker {
		t.Fatalf("counter sum %d, want %d (stats %+v)", total, workers*perWorker, st)
	}
	if want := int64(workers*perWorker) * wireSize(1, 4); st.BytesReceived != want {
		t.Fatalf("bytes %d, want %d", st.BytesReceived, want)
	}
	if st.UpdatesQuarantined == 0 {
		t.Fatal("poison stream never quarantined")
	}
	// every aggregation consumed at least MinUpdates accepted updates
	if maxRounds := st.UpdatesAccepted/int64(srv.cfg.MinUpdates) + 1; int64(srv.Round()) > maxRounds {
		t.Fatalf("round %d impossible with %d accepted updates", srv.Round(), st.UpdatesAccepted)
	}
	m, _ := srv.Model()
	for i, v := range m.Flat() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("global model[%d] = %v: quarantine leaked", i, v)
		}
	}
}
