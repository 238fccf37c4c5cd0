package flnet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"fhdnn/internal/hdc"
)

// modelBytes is what GET /v1/model must serve: Model()'s WriteTo bytes,
// with its round.
func modelBytes(t testing.TB, srv *Server) ([]byte, int) {
	t.Helper()
	m, round := srv.Model()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), round
}

// fetchRaw issues one model request and returns the status, headers and
// body as received.
func fetchRaw(t *testing.T, url, method string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url+"/v1/model", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// checkFetch asserts GET serves Model()'s bytes, round and length, and
// HEAD the same length with no body.
func checkFetch(t *testing.T, srv *Server, url string, wantRound int) {
	t.Helper()
	want, round := modelBytes(t, srv)
	if round != wantRound {
		t.Fatalf("server at round %d, want %d", round, wantRound)
	}
	code, hdr, body := fetchRaw(t, url, http.MethodGet)
	if code != http.StatusOK {
		t.Fatalf("round %d: GET status %d", round, code)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("round %d: GET body differs from Model().WriteTo (%d vs %d bytes)", round, len(body), len(want))
	}
	if got := hdr.Get(RoundHeader); got != strconv.Itoa(round) {
		t.Fatalf("round %d: %s = %q", round, RoundHeader, got)
	}
	if got := hdr.Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Fatalf("round %d: GET Content-Length %q, want %d", round, got, len(want))
	}
	code, hdr, body = fetchRaw(t, url, http.MethodHead)
	if code != http.StatusOK || len(body) != 0 {
		t.Fatalf("round %d: HEAD status %d with %d body bytes", round, code, len(body))
	}
	if got := hdr.Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Fatalf("round %d: HEAD Content-Length %q, want %d", round, got, len(want))
	}
	if got := hdr.Get(RoundHeader); got != strconv.Itoa(round) {
		t.Fatalf("round %d: HEAD %s = %q", round, RoundHeader, got)
	}
}

// filled is a k x d update with every entry v.
func filled(k, d int, v float32) *hdc.Model {
	m := hdc.NewModel(k, d)
	for i := range m.Flat() {
		m.Flat()[i] = v
	}
	return m
}

// The fetch serves each commit's global, whichever rule closed the round:
// the first round, a MinUpdates commit, a deadline commit and the
// Shutdown fold.
func TestModelFetchServesEachCommit(t *testing.T) {
	const k, d = 2, 8
	srv, ts := newTestServer(t, ServerConfig{NumClasses: k, Dim: d, MinUpdates: 2, RoundDeadline: 500 * time.Millisecond})
	ctx := context.Background()
	push := func(id string, round int, v float32) {
		t.Helper()
		c := &Client{BaseURL: ts.URL, ID: id}
		if err := c.PushUpdate(ctx, round, filled(k, d, v)); err != nil {
			t.Fatal(err)
		}
	}
	checkFetch(t, srv, ts.URL, 1)

	push("a", 1, 1)
	push("b", 1, 3)
	checkFetch(t, srv, ts.URL, 2) // MinUpdates commit

	push("a", 2, 5)
	for srv.Round() == 2 {
		time.Sleep(10 * time.Millisecond)
	}
	checkFetch(t, srv, ts.URL, 3) // deadline commit

	push("a", 3, 7)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	checkFetch(t, srv, ts.URL, 4) // Shutdown fold
}

// Fetches racing commits never pair one round's body with another
// round's header: every fetched body equals the bytes recorded for the
// round its header names.
func TestModelFetchNeverMixesRounds(t *testing.T) {
	const k, d, rounds, fetchers = 2, 32, 100, 3
	srv, ts := newTestServer(t, ServerConfig{NumClasses: k, Dim: d, MinUpdates: 1})
	want := map[int][]byte{}
	body, round := modelBytes(t, srv)
	want[round] = body

	type fetched struct {
		round string
		body  []byte
	}
	got := make([][]fetched, fetchers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for f := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/model")
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				got[f] = append(got[f], fetched{resp.Header.Get(RoundHeader), b})
			}
		}()
	}
	c := &Client{BaseURL: ts.URL, ID: "pusher"}
	for r := 1; r <= rounds; r++ {
		if err := c.PushUpdate(context.Background(), r, filled(k, d, float32(r))); err != nil {
			t.Fatal(err)
		}
		body, round := modelBytes(t, srv)
		if round != r+1 {
			t.Fatalf("after push %d the server is at round %d", r, round)
		}
		if bytes.Equal(body, want[r]) {
			t.Fatalf("round %d committed the same global as round %d", r+1, r)
		}
		want[round] = body
	}
	close(stop)
	wg.Wait()

	n := 0
	for _, fs := range got {
		for _, f := range fs {
			r, err := strconv.Atoi(f.round)
			if err != nil {
				t.Fatalf("bad %s %q", RoundHeader, f.round)
			}
			if !bytes.Equal(f.body, want[r]) {
				t.Fatalf("body served under round %d is not that round's global", r)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no fetch completed")
	}
}

// BenchmarkModelFetch serves the paper-size global (K=10, d=10 000: a
// 400 012 B body) through the handler, the steady state between commits.
func BenchmarkModelFetch(b *testing.B) {
	srv, err := NewServer(ServerConfig{NumClasses: 10, Dim: 10000, MinUpdates: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	want, _ := modelBytes(b, srv)
	req := httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	w := &statusWriter{header: http.Header{}}
	h.ServeHTTP(w, req) // builds the round's snapshot
	b.SetBytes(int64(len(want)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("fetch %d: status %d", i, w.code)
		}
	}
}
