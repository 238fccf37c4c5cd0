package flnet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"testing/iotest"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
)

// The body read's contract: the bytes of io.ReadAll, a buffer never more
// than 4x what arrived (or the 512 B start) whatever the declared length,
// and few allocations for a truthfully declared paper-size body.
func TestReadBody(t *testing.T) {
	declared := []int64{-1, 0, 10, 4116, 400020, 1e9}
	actual := []int{0, 1, 511, 512, 513, 4116, 400020}
	rng := rand.New(rand.NewSource(1))
	for _, dl := range declared {
		for _, n := range actual {
			body := make([]byte, n)
			rng.Read(body)
			for _, r := range []io.Reader{bytes.NewReader(body), iotest.HalfReader(bytes.NewReader(body))} {
				got, err := readBody(r, dl, nil)
				if err != nil {
					t.Fatalf("declared %d, actual %d: %v", dl, n, err)
				}
				if !bytes.Equal(got, body) {
					t.Fatalf("declared %d, actual %d: read %d bytes that differ from the body", dl, n, len(got))
				}
				if c := cap(got); c > max(512, 4*len(got)) {
					t.Fatalf("declared %d, actual %d: cap %d over max(512, 4*len)", dl, n, c)
				}
			}
		}
	}

	body := make([]byte, 400020)
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if _, err := readBody(rd, int64(len(body)), nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("truthfully declared %d B body: %.1f allocs, want <= 6", len(body), allocs)
	}

	// A read error comes back with the bytes read before it.
	got, err := readBody(iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader([]byte("ab")))), 2, nil)
	if err != iotest.ErrTimeout || string(got) != "a" {
		t.Fatalf("read error: got (%q, %v), want (\"a\", %v)", got, err, iotest.ErrTimeout)
	}
}

// rawPost writes a hand-built HTTP/1.1 request to the server's socket —
// the way to send a lying Content-Length, a chunked body or a cut-short
// one — and returns the status, or 0 if the server answered nothing. With
// cutShort the client half-closes after the body, so the server sees the
// body end early but can still answer.
func rawPost(t *testing.T, addr string, headers, body string, cutShort bool) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := "POST /v1/update?round=1 HTTP/1.1\r\nHost: fhdnn\r\n" + headers + "\r\n" + body
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	if cutShort {
		_ = conn.(*net.TCPConn).CloseWrite()
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return 0
	}
	_ = resp.Body.Close()
	return resp.StatusCode
}

func TestUploadBodyFraming(t *testing.T) {
	const k, d = 1, 4
	limit := 64 + fedcore.EnvelopeOverhead + 8*k*d
	env, err := fedcore.EncodeEnvelope(compress.Raw{}, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	addr := func(t *testing.T) (*Server, string) {
		srv, ts := newTestServer(t, ServerConfig{NumClasses: k, Dim: d, MinUpdates: 99})
		return srv, ts.Listener.Addr().String()
	}

	t.Run("declared over the limit", func(t *testing.T) {
		srv, a := addr(t)
		big := string(env) + string(make([]byte, 1000))
		code := rawPost(t, a, "Content-Length: "+strconv.Itoa(len(big))+"\r\n", big, false)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", code)
		}
		st := srv.Stats()
		if st.QuarantinedByReason[QuarantineEnvelope] != 1 || st.UpdatesAccepted != 0 {
			t.Fatalf("stats %+v: want one envelope quarantine and nothing accepted", st)
		}
		if st.BytesReceived != int64(limit) {
			t.Fatalf("bytes received %d, want the %d B limit", st.BytesReceived, limit)
		}
	})

	t.Run("chunked", func(t *testing.T) {
		srv, a := addr(t)
		var chunks bytes.Buffer
		for _, part := range [][]byte{env[:7], env[7:30], env[30:]} {
			fmt.Fprintf(&chunks, "%x\r\n%s\r\n", len(part), part)
		}
		chunks.WriteString("0\r\n\r\n")
		code := rawPost(t, a, "Transfer-Encoding: chunked\r\n", chunks.String(), false)
		if code != http.StatusAccepted {
			t.Fatalf("status %d, want 202", code)
		}
		if st := srv.Stats(); st.UpdatesAccepted != 1 || st.BytesReceived != int64(len(env)) {
			t.Fatalf("stats %+v: want one update of %d B accepted", st, len(env))
		}
	})

	t.Run("cut short after the header", func(t *testing.T) {
		srv, a := addr(t)
		code := rawPost(t, a, "Content-Length: "+strconv.Itoa(len(env))+"\r\n",
			string(env[:fedcore.EnvelopeOverhead]), true)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", code)
		}
		st := srv.Stats()
		if st.QuarantinedByReason[QuarantineEnvelope] != 1 || st.UpdatesAccepted != 0 {
			t.Fatalf("stats %+v: want one envelope quarantine and nothing accepted", st)
		}
		if st.BytesReceived != fedcore.EnvelopeOverhead {
			t.Fatalf("bytes received %d, want the %d B sent", st.BytesReceived, fedcore.EnvelopeOverhead)
		}
	})
}

// uploadStatuses are the statuses handleUpdate and routeUpdate write.
var uploadStatuses = map[int]bool{
	http.StatusAccepted: true, http.StatusBadRequest: true, http.StatusConflict: true,
	http.StatusGone: true, http.StatusUnprocessableEntity: true,
	http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
}

// FuzzUpload sends an arbitrary query, client header and body through a
// fresh server's handler. Whatever arrives, the handler must not panic,
// must answer with a status the upload path writes, must count at most
// its body limit as received, and must accept (202) only a body that
// decodes as a k x d envelope.
func FuzzUpload(f *testing.F) {
	const k, d = 2, 16
	limit := int64(64 + fedcore.EnvelopeOverhead + 8*k*d)
	u := make([]float32, k*d)
	for i := range u {
		u[i] = float32(i%7) - 3
	}
	for _, c := range []compress.Codec{compress.Raw{}, compress.Float16{}, compress.Int8{}, compress.TopK{Frac: 0.25}} {
		env, err := fedcore.EncodeEnvelope(c, u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add("round=1", "c1", env)
	}
	raw := rawUpload(f, k, d)
	f.Add("", "", []byte{})
	f.Add("round=x", "c1", raw)
	f.Add("round=2", "c1", raw) // stale
	f.Add("round=1", "c1", raw[:len(raw)-1])
	f.Add("round=1", "", append(raw, make([]byte, limit)...)) // past the body limit

	f.Fuzz(func(t *testing.T, rawQuery, client string, body []byte) {
		srv, err := NewServer(ServerConfig{NumClasses: k, Dim: d, MinUpdates: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body))
		req.URL.RawQuery = rawQuery
		req.Header.Set(ClientHeader, client)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if !uploadStatuses[w.Code] {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if got := srv.Stats().BytesReceived; got > limit {
			t.Fatalf("%d B counted received, past the %d B body limit", got, limit)
		}
		if w.Code == http.StatusAccepted {
			if _, err := fedcore.DecodeEnvelopeInto(make([]float32, k*d), body); err != nil {
				t.Fatalf("202 for a body that is no %dx%d envelope: %v", k, d, err)
			}
		}
	})
}

// rawUpload is the raw-envelope body of a k x d update.
func rawUpload(t testing.TB, k, d int) []byte {
	t.Helper()
	u := make([]float32, k*d)
	for i := range u {
		u[i] = float32(i%17) - 8
	}
	body, err := fedcore.EncodeEnvelope(compress.Raw{}, u)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// uploadRequests builds n raw-envelope uploads of a k x d update for
// round 1, each from its own client id so none is a duplicate.
func uploadRequests(t testing.TB, k, d, n int) []*http.Request {
	t.Helper()
	body := rawUpload(t, k, d)
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/update?round=1", bytes.NewReader(body))
		reqs[i].Header.Set(ClientHeader, "c"+strconv.Itoa(i))
	}
	return reqs
}

// A paper-size upload (K=10, d=10 000: a 400 020 B raw envelope) costs the
// server at most 3x its body in heap, once the round's accumulator
// exists: the body read, the decoded vector, and little else.
func TestUploadAllocBytes(t *testing.T) {
	const k, d, runs = 10, 10000, 4
	srv, err := NewServer(ServerConfig{NumClasses: k, Dim: d, MinUpdates: 99})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	reqs := uploadRequests(t, k, d, runs+1)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	h.ServeHTTP(recs[0], reqs[0]) // warm-up: sizes the round's accumulator

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		if rec.Code != http.StatusAccepted {
			t.Fatalf("upload %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	bodyLen := float64(reqs[0].ContentLength)
	perUpload := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if perUpload > 3*bodyLen {
		t.Fatalf("%.0f B allocated per %.0f B upload (%.2fx), want <= 3x", perUpload, bodyLen, perUpload/bodyLen)
	}
}

func BenchmarkQuarantineScan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := make([]float32, 10*10000)
	for i := range u {
		u[i] = float32(rng.NormFloat64())
	}
	for _, maxNorm := range []float64{0, 1e6} {
		b.Run("maxNorm="+strconv.FormatFloat(maxNorm, 'g', -1, 64), func(b *testing.B) {
			b.SetBytes(int64(4 * len(u)))
			for i := 0; i < b.N; i++ {
				if r, _ := quarantineReason(u, maxNorm); r != "" {
					b.Fatal(r)
				}
			}
		})
	}
}

// BenchmarkUpload drives raw-envelope uploads through the whole handler —
// body read, envelope, decode, quarantine, Add, and a commit every 64
// uploads — at the paper's size (400 020 B) and the smallest (4 116 B).
func BenchmarkUpload(b *testing.B) {
	for _, sz := range []struct {
		name string
		k, d int
	}{{"400k", 10, 10000}, {"4k", 2, 512}} {
		b.Run(sz.name, func(b *testing.B) {
			const clients = 64
			srv, err := NewServer(ServerConfig{NumClasses: sz.k, Dim: sz.d, MinUpdates: clients})
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			body := rawUpload(b, sz.k, sz.d)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/update", io.NopCloser(rd))
			req.ContentLength = int64(len(body))
			ids := make([]string, clients)
			for i := range ids {
				ids[i] = "c" + strconv.Itoa(i)
			}
			w := &statusWriter{header: http.Header{}}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%clients == 0 {
					req.URL.RawQuery = "round=" + strconv.Itoa(srv.Round())
				}
				rd.Reset(body)
				req.Header.Set(ClientHeader, ids[i%clients])
				h.ServeHTTP(w, req)
				if w.code != http.StatusAccepted {
					b.Fatalf("upload %d: status %d", i, w.code)
				}
			}
		})
	}
}

// statusWriter is a ResponseWriter that keeps only the status code, so
// BenchmarkUpload measures the server and not a response recorder.
type statusWriter struct {
	header http.Header
	code   int
}

func (w *statusWriter) Header() http.Header         { return w.header }
func (w *statusWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *statusWriter) WriteHeader(code int)        { w.code = code }
