package flnet

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"testing/iotest"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
)

// A recycled starting buffer keeps readBody's contract: io.ReadAll's
// bytes; no allocation when the body fits; and a grown buffer at most 4x
// what arrived.
func TestReadBodyRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, start := range []int{1, 512, 4116, 400021} {
		for _, n := range []int{0, 511, 4116, 400020} {
			body := make([]byte, n)
			rng.Read(body)
			b := make([]byte, 0, start)
			got, err := readBody(iotest.HalfReader(bytes.NewReader(body)), int64(n), b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("start %d, body %d: read %d bytes that differ from the body", start, n, len(got))
			}
			if n < start && &got[:cap(got)][0] != &b[:cap(b)][0] {
				t.Fatalf("start %d, body %d: a body that fits left the recycled buffer", start, n)
			}
			if c := cap(got); c > max(start, 4*len(got)) {
				t.Fatalf("start %d, body %d: cap %d over max(start, 4*len)", start, n, c)
			}
		}
	}
}

// postEnvelope sends one envelope straight to h as client id, declaring
// declared bytes (the body's own length when negative), and returns the
// status.
func postEnvelope(h http.Handler, round int, id string, body []byte, declared int64) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/update?round="+strconv.Itoa(round), bytes.NewReader(body))
	if declared >= 0 {
		req.ContentLength = declared
	}
	req.Header.Set(ClientHeader, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

func testVector(rng *rand.Rand, n int) []float32 {
	u := make([]float32, n)
	for i := range u {
		u[i] = float32(rng.NormFloat64())
	}
	return u
}

// checkModel holds the server's global to the bits a reference
// aggregator commits from rows.
func checkModel(t *testing.T, srv *Server, ref fedcore.Aggregator, rows [][]float32) {
	t.Helper()
	for _, row := range rows {
		ref.Add(fedcore.Update{Params: row, Samples: 1})
	}
	want := make([]float32, len(rows[0]))
	ref.Commit(want)
	m, round := srv.Model()
	if round != 2 {
		t.Fatalf("round %d, want the first round committed", round)
	}
	for i, v := range m.Flat() {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("global[%d] = %v, reference commits %v", i, v, want[i])
		}
	}
}

// One recycled buffer pair through a full raw upload, a body cut to half
// its declared length, and a top-k upload: the cut body must not leak
// into the next decode, the top-k decode must clear what the raw one
// left, and the round commits what fresh decodes would.
func TestUploadBuffersRecycleCleanly(t *testing.T) {
	const k, d = 2, 300
	srv, err := NewServer(ServerConfig{NumClasses: k, Dim: d, MinUpdates: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	rng := rand.New(rand.NewSource(3))
	raw, cut, sparse := testVector(rng, k*d), testVector(rng, k*d), testVector(rng, k*d)
	envelope := func(c compress.Codec, u []float32) []byte {
		b, err := fedcore.EncodeEnvelope(c, u)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	topk := compress.TopK{Frac: 0.1}

	if code := postEnvelope(h, 1, "raw", envelope(compress.Raw{}, raw), -1); code != http.StatusAccepted {
		t.Fatalf("raw upload: status %d", code)
	}
	whole := envelope(compress.Raw{}, cut)
	if code := postEnvelope(h, 1, "cut", whole[:len(whole)/2], int64(len(whole))); code != http.StatusUnprocessableEntity {
		t.Fatalf("cut upload: status %d, want 422", code)
	}
	if got := srv.Stats().QuarantinedByReason[QuarantineEnvelope]; got != 1 {
		t.Fatalf("%d envelope quarantines, want the cut body's one", got)
	}
	if code := postEnvelope(h, 1, "topk", envelope(topk, sparse), -1); code != http.StatusAccepted {
		t.Fatalf("topk upload: status %d", code)
	}
	decoded, _, err := compress.RoundTrip(topk, sparse)
	if err != nil {
		t.Fatal(err)
	}
	checkModel(t, srv, &fedcore.Bundle{}, [][]float32{raw, decoded})
}

// Concurrent distinct uploads into a Median round: each handler's pooled
// buffer is back in the pool, and overwritten by the next upload, while
// the aggregator still holds the row. Meaningful under -race.
func TestConcurrentUploadsCommitMedian(t *testing.T) {
	const k, d, workers, per = 2, 256, 4, 6
	srv, err := NewServer(ServerConfig{NumClasses: k, Dim: d, MinUpdates: workers * per, Aggregator: &fedcore.Median{}})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	rng := rand.New(rand.NewSource(4))
	rows := make([][]float32, workers*per)
	bodies := make([][]byte, len(rows))
	for i := range rows {
		rows[i] = testVector(rng, k*d)
		if bodies[i], err = fedcore.EncodeEnvelope(compress.Raw{}, rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	codes := make([]int, len(rows))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rows); i += workers {
				codes[i] = postEnvelope(h, 1, "c"+strconv.Itoa(i), bodies[i], -1)
			}
		}(w)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusAccepted {
			t.Fatalf("upload %d: status %d", i, code)
		}
	}
	checkModel(t, srv, &fedcore.Median{}, rows)
}

// Once warm, a paper-size upload (K=10, d=10 000: a 400 020 B raw
// envelope) allocates no body and no decode buffer: at most 64 KB per
// upload through the handler, where one fresh pair costs ~800 KB. GC is
// off and there is one P while it measures, so the pool keeps what the
// warm-up put in it, in the slot the next Get looks in first.
func TestUploadSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const k, d, runs = 10, 10000, 4
	srv, err := NewServer(ServerConfig{NumClasses: k, Dim: d, MinUpdates: 99})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	reqs := uploadRequests(t, k, d, runs+2)
	w := &statusWriter{header: http.Header{}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, req := range reqs[:2] { // warm-up: the round's accumulator and the pooled pair
		h.ServeHTTP(w, req)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs[2:] {
		h.ServeHTTP(w, req)
		if w.code != http.StatusAccepted {
			t.Fatalf("status %d", w.code)
		}
	}
	runtime.ReadMemStats(&after)
	if perUpload := (after.TotalAlloc - before.TotalAlloc) / runs; perUpload > 64<<10 {
		t.Fatalf("%d B allocated per warm %d B upload, want <= 64 KB", perUpload, reqs[0].ContentLength)
	}
}
