package flnet

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
)

func TestEnvelopeUpdateAggregation(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	ctx := context.Background()
	// raw codec is lossless, so the aggregate must be the exact mean
	c := &Client{BaseURL: ts.URL, Codec: compress.Raw{}}

	u1 := hdc.NewModel(1, 4)
	u1.SetFlat([]float32{2, 2, 2, 2})
	u2 := hdc.NewModel(1, 4)
	u2.SetFlat([]float32{4, 4, 4, 4})
	if err := c.PushUpdate(ctx, 1, u1); err != nil {
		t.Fatal(err)
	}
	if err := c.PushUpdate(ctx, 1, u2); err != nil {
		t.Fatal(err)
	}
	m, round := srv.Model()
	if round != 2 {
		t.Fatalf("round = %d, want 2", round)
	}
	for i, v := range m.Flat() {
		if v != 3 {
			t.Fatalf("aggregated[%d] = %v, want 3", i, v)
		}
	}
	st := srv.Stats()
	if st.UpdatesByCodec["raw"] != 2 {
		t.Fatalf("per-codec stats %+v", st.UpdatesByCodec)
	}
	// both envelopes crossed the wire at envelope-framed size
	if want := 2 * int64(fedcore.WireBytes(compress.Raw{}, 4)); st.BytesReceived != want {
		t.Fatalf("bytes %d, want %d", st.BytesReceived, want)
	}
}

func TestCorruptedEnvelopeQuarantined(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	data, err := fedcore.EncodeEnvelope(compress.Int8{}, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/update?round=1", EnvelopeContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { drainClose(resp.Body) })
		return resp
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0x40 // checksum no longer matches
	if resp := post(corrupt); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupted envelope -> %d, want 422", resp.StatusCode)
	}
	if resp := post(data[:10]); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("truncated envelope -> %d, want 422", resp.StatusCode)
	}
	if st := srv.Stats(); st.UpdatesQuarantined != 2 || st.UpdatesAccepted != 0 {
		t.Fatalf("stats %+v", st)
	}
	// the client surfaces the quarantine as its typed error
	c := &Client{BaseURL: ts.URL}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/update?round=1", bytes.NewReader(corrupt))
	req.Header.Set("Content-Type", EnvelopeContentType)
	resp, err := c.http().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// a valid envelope still aggregates after the rejects
	if resp := post(data); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid envelope -> %d", resp.StatusCode)
	}
}

func TestEnvelopeQuarantinedNonFinite(t *testing.T) {
	// A structurally valid envelope whose input held a non-finite entry
	// must hit the non-finite quarantine gate whatever the codec: a lossy
	// codec may not turn the NaN into a finite value on the way. With
	// MinUpdates 1 an update that slipped through would commit at once.
	inf := float32(math.Inf(1))
	bad := map[string]float32{"NaN": float32(math.NaN()), "+Inf": inf, "-Inf": -inf}
	for _, spec := range []string{"raw", "float16", "int8", "topk:0.5"} {
		codec, err := fedcore.ParseCodec(spec)
		if err != nil {
			t.Fatal(err)
		}
		srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 1})
		c := &Client{BaseURL: ts.URL, Codec: codec}
		var want int64
		for name, v := range bad {
			for _, at := range []int{0, 1, 3} {
				flat := []float32{1, -2, 3, 4}
				flat[at] = v
				m := hdc.NewModel(1, 4)
				m.SetFlat(flat)
				err := c.PushUpdate(context.Background(), 1, m)
				var quar ErrQuarantined
				if !errors.As(err, &quar) {
					t.Fatalf("%s, %s at %d: %v, want ErrQuarantined", spec, name, at, err)
				}
				want++
				st := srv.Stats()
				if got := st.QuarantinedByReason[QuarantineNonFinite]; got != want || st.UpdatesAccepted != 0 {
					t.Fatalf("%s, %s at %d: %d nonfinite quarantines, want %d (stats %+v)", spec, name, at, got, want, st)
				}
			}
		}
		global, round := srv.Model()
		if round != 1 {
			t.Fatalf("%s: round = %d, want 1", spec, round)
		}
		for i, v := range global.Flat() {
			if v != 0 {
				t.Fatalf("%s: global[%d] = %v, want the untouched 0", spec, i, v)
			}
		}
	}
}

// runCodecTraining executes the full HTTP federated loop with every client
// using the given codec and returns the final test
// accuracy and total uplink bytes the server reports.
func runCodecTraining(t *testing.T, codec compress.Codec) (float64, int64) {
	t.Helper()
	const numClients, rounds = 3, 3
	shards, labels, testEnc, testLabels, k, d := heldOutClusters(t, numClients, 3)
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: k, Dim: d, MinUpdates: numClients, MaxRounds: rounds})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lt := &LocalTrainer{
				Client:  &Client{BaseURL: ts.URL, Codec: codec},
				Encoded: shards[i],
				Labels:  labels[i],
				Epochs:  2,
				Poll:    2 * time.Millisecond,
			}
			if _, err := lt.Participate(ctx); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	global, _ := srv.Model()
	st := srv.Stats()
	if name := codec.Name(); st.UpdatesByCodec[name] != int64(numClients*rounds) {
		t.Fatalf("%s updates %d, want %d (by codec: %+v)",
			name, st.UpdatesByCodec[name], numClients*rounds, st.UpdatesByCodec)
	}
	return global.Accuracy(testEnc, testLabels), st.BytesReceived
}

// TestInt8CodecWireSavings is the headline acceptance check: a federated
// run whose updates travel as int8 envelopes must report >= 3.5x fewer
// wire bytes in /v1/stats than the same run over raw float32, at
// equivalent accuracy.
func TestInt8CodecWireSavings(t *testing.T) {
	rawAcc, rawBytes := runCodecTraining(t, compress.Raw{})
	int8Acc, int8Bytes := runCodecTraining(t, compress.Int8{})
	if rawAcc < 0.85 {
		t.Fatalf("raw-codec accuracy %v too low", rawAcc)
	}
	if math.Abs(rawAcc-int8Acc) > 0.05 {
		t.Fatalf("int8 accuracy %v deviates from raw %v", int8Acc, rawAcc)
	}
	ratio := float64(rawBytes) / float64(int8Bytes)
	if ratio < 3.5 {
		t.Fatalf("int8 wire savings %.2fx (raw %d bytes, int8 %d), want >= 3.5x",
			ratio, rawBytes, int8Bytes)
	}
}

// Clients with different codecs — including none, which means raw —
// aggregate together inside one round, each booked under the codec its
// envelope carried and at that envelope's wire size.
func TestMixedCodecRound(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	ctx := context.Background()

	u1 := hdc.NewModel(1, 4)
	u1.SetFlat([]float32{2, 2, 2, 2})
	u2 := hdc.NewModel(1, 4)
	u2.SetFlat([]float32{6, 6, 6, 6}) // exact in float16
	if err := (&Client{BaseURL: ts.URL}).PushUpdate(ctx, 1, u1); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.UpdatesByCodec["raw"] != 1 ||
		st.BytesReceived != int64(fedcore.WireBytes(compress.Raw{}, 4)) {
		t.Fatalf("nil Codec must ship one raw envelope: %+v", st)
	}
	if err := (&Client{BaseURL: ts.URL, Codec: compress.Float16{}}).PushUpdate(ctx, 1, u2); err != nil {
		t.Fatal(err)
	}
	m, _ := srv.Model()
	for i, v := range m.Flat() {
		if v != 4 {
			t.Fatalf("mixed aggregate[%d] = %v, want 4", i, v)
		}
	}
	st := srv.Stats()
	if st.UpdatesByCodec["raw"] != 1 || st.UpdatesByCodec["float16"] != 1 {
		t.Fatalf("per-codec stats %+v", st.UpdatesByCodec)
	}
}

// wirelessCodec is a compress.Codec fedcore has assigned no wire id.
type wirelessCodec struct{ compress.Raw }

func (wirelessCodec) Name() string { return "wireless" }

func TestPushUpdateRefusesCodecWithoutWireID(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits.Add(1) }))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, Codec: wirelessCodec{}}
	if err := c.PushUpdate(context.Background(), 1, hdc.NewModel(1, 4)); err == nil {
		t.Fatal("a codec without a wire id must be an error, not a downgrade")
	}
	if hits.Load() != 0 {
		t.Fatalf("%d requests sent for an unencodable update", hits.Load())
	}
}
