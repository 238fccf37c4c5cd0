package flnet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"net/url"
	"sync/atomic"
	"testing"

	"fhdnn/internal/hdc"
)

// The header names are canonical, so Header.Get and Set take them as
// they are and a handler may index an http.Header with them.
func TestHeaderNamesCanonical(t *testing.T) {
	for _, h := range []string{RoundHeader, ClientHeader} {
		if c := textproto.CanonicalMIMEHeaderKey(h); c != h {
			t.Errorf("%q is not canonical: net/http keys it as %q", h, c)
		}
	}
}

// roundQueries are raw queries where roundParam's shortcuts could part
// from url.ParseQuery: escapes in keys and values, '+', ';', repeated and
// empty keys, bad escapes, and no query at all.
var roundQueries = []string{
	"", "round=7", "round=", "round", "=7", "&", "&&round=3&", "round=1&round=2",
	"round=x&round=2", "a=1&round=4", "rou%6Ed=5", "round=%37", "round=%3", "round=%zz&round=6",
	"r%zzound=1&round=8", "round=+9", "round=1+2", "+round=3", "round%20=3", "round;=1&round=2",
	"round=1;x&round=3", "round=1;", ";round=1", "round==5", "round=5=6", "ROUND=1", "round=-1",
	"round=%2B1", "round=%00", "round=99999999999999999999", "x=%&round=2",
}

// roundParam allocates nothing for a round without escapes, whatever
// else the query holds.
func TestRoundParamAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { _ = roundParam("a=1&round=42&b=%20") }); allocs != 0 {
		t.Fatalf("roundParam of an unescaped round made %.1f allocations, want 0", allocs)
	}
}

// FuzzRoundQuery holds roundParam to url.ParseQuery(raw).Get("round")
// on every input; plain go test runs the roundQueries seeds.
func FuzzRoundQuery(f *testing.F) {
	for _, q := range roundQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if got, want := roundParam(q), parseQueryRound(q); got != want {
			t.Fatalf("roundParam(%q) = %q, url.ParseQuery gives %q", q, got, want)
		}
	})
}

// parseQueryRound is the reference: what r.URL.Query().Get("round") reads.
func parseQueryRound(q string) string {
	v, _ := url.ParseQuery(q)
	return v.Get("round")
}

// The handlers themselves allocate nothing per model fetch and at most
// net/http's MaxBytesReader per upload: the model's header values are
// built once per commit, the round is read from the raw query, and the
// header names need no canonical copy. Each measured upload comes from a
// client of its own, so every one passes the duplicate gate and reaches
// the aggregator's Add.
func TestHandlerAllocs(t *testing.T) {
	srv, err := NewServer(ServerConfig{NumClasses: 10, Dim: 2048, MinUpdates: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := &statusWriter{header: http.Header{}}
	fetch := httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	h.ServeHTTP(w, fetch) // builds the round's snapshot
	if allocs := testing.AllocsPerRun(50, func() { h.ServeHTTP(w, fetch) }); allocs != 0 {
		t.Fatalf("GET /v1/model: %.1f allocations, want 0", allocs)
	}
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("GET /v1/model: status %d", w.code)
	}
	if raceEnabled {
		t.Skip("the upload's pooled buffers: sync.Pool drops items at random under the race detector")
	}

	const runs = 50
	body := rawUpload(t, 10, 2048)
	rd := bytes.NewReader(body)
	pushes := make([]*http.Request, runs+1) // AllocsPerRun warms up with one more call
	for i := range pushes {
		pushes[i] = httptest.NewRequest(http.MethodPost, "/v1/update?round=1", io.NopCloser(rd))
		pushes[i].ContentLength = int64(len(body))
		pushes[i].Header.Set(ClientHeader, fmt.Sprintf("c%d", i))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rd.Reset(body)
		h.ServeHTTP(w, pushes[next])
		next++
	})
	if w.code != http.StatusAccepted {
		t.Fatalf("POST /v1/update: status %d", w.code)
	}
	if st := srv.Stats(); st.UpdatesAccepted != runs+1 || st.DuplicateUpdates != 0 {
		t.Fatalf("POST /v1/update: %d accepted, %d duplicates; want %d and 0", st.UpdatesAccepted, st.DuplicateUpdates, runs+1)
	}
	if allocs > 1 {
		t.Fatalf("POST /v1/update: %.1f allocations, want <= 1", allocs)
	}
}

// drainClose reads what is left of a body up to drainLimit, closes it,
// and allocates nothing.
func TestDrainClose(t *testing.T) {
	for _, n := range []int{0, 1, 5000, drainLimit, 3 * drainLimit} {
		body := &countingBody{r: bytes.NewReader(make([]byte, n))}
		drainClose(body)
		if want := min(n, drainLimit); body.read != want || !body.closed {
			t.Fatalf("%d B left: drained %d B, closed %v; want %d B, closed", n, body.read, body.closed, want)
		}
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rd := bytes.NewReader(nil)
	body := &countingBody{r: rd}
	if allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(make([]byte, 0))
		drainClose(body)
	}); allocs != 0 {
		t.Fatalf("drainClose: %.1f allocations, want 0", allocs)
	}
}

type countingBody struct {
	r      io.Reader
	read   int
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.read += n
	return n, err
}

func (b *countingBody) Close() error { b.closed = true; return nil }

// A Client's round trips share one keep-alive connection, and a Client
// pointed at another server or given another ID uses the new ones.
func TestClientRoundTripReusesConnection(t *testing.T) {
	srvA, err := NewServer(ServerConfig{NumClasses: 2, Dim: 64, MinUpdates: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	tsA := httptest.NewUnstartedServer(srvA.Handler())
	tsA.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	tsA.Start()
	defer tsA.Close()
	ctx := context.Background()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: tsA.URL, ID: "a", HTTPClient: &http.Client{Transport: tr}}
	for i := 0; i < 20; i++ {
		m, round, err := c.FetchModel(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushUpdate(ctx, round, m); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 fetch + push round trips opened %d connections, want 1", n)
	}

	srvB, err := NewServer(ServerConfig{NumClasses: 2, Dim: 64, MinUpdates: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	c.BaseURL, c.ID = tsB.URL, "b"
	if err := c.PushUpdate(ctx, 1, hdc.NewModel(2, 64)); err != nil {
		t.Fatal(err)
	}
	if r := srvB.Round(); r != 2 {
		t.Fatalf("the push to the new BaseURL left it at round %d, want 2", r)
	}
	if st := srvA.Stats(); st.UpdatesAccepted != 1 {
		t.Fatalf("the first server accepted %d updates, want 1 (one per client ID per round)", st.UpdatesAccepted)
	}
}

// One Client shared by several goroutines: they build and read its cached
// endpoints at once, and every call succeeds (run under -race).
func TestClientConcurrentUse(t *testing.T) {
	srv, err := NewServer(ServerConfig{NumClasses: 2, Dim: 64, MinUpdates: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, ID: "shared"}
	ctx := context.Background()
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func() {
			for i := 0; i < 5; i++ {
				m, round, err := c.FetchModel(ctx)
				if err == nil {
					err = c.PushUpdate(ctx, round, m)
				}
				if err == nil {
					_, err = c.Round(ctx)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkClientRoundTrip is one fleet slot through net/http over
// loopback: FetchModel, then PushUpdate of the fetched model, against an
// in-process server whose round stays open. Client and server share the
// process, so allocs/op counts both ends of both requests.
func BenchmarkClientRoundTrip(b *testing.B) {
	srv, err := NewServer(ServerConfig{NumClasses: 10, Dim: 2048, MinUpdates: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: ts.URL, ID: "bench", HTTPClient: &http.Client{Transport: tr}}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, round, err := c.FetchModel(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.PushUpdate(ctx, round, m); err != nil {
			b.Fatal(err)
		}
	}
}
