package flnet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"fhdnn/internal/channel"
	"fhdnn/internal/compress"
	"fhdnn/internal/dataset"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s, ts
}

// wireSize is the upload size of a KxD model from a Client with no Codec
// set: a raw envelope.
func wireSize(k, d int) int64 { return int64(fedcore.WireBytes(compress.Raw{}, k*d)) }

func TestServerConfigValidation(t *testing.T) {
	bad := []ServerConfig{
		{NumClasses: 0, Dim: 8, MinUpdates: 1},
		{NumClasses: 2, Dim: 0, MinUpdates: 1},
		{NumClasses: 2, Dim: 8, MinUpdates: 0},
		{NumClasses: 2, Dim: 8, MinUpdates: 1, MaxUpdateNorm: -1},
		// A negative MaxRounds would silently mean "unlimited".
		{NumClasses: 2, Dim: 8, MinUpdates: 1, MaxRounds: -1},
		// NaN compares false with everything: it must not slip past the
		// sign check and silently switch the norm gate off.
		{NumClasses: 2, Dim: 8, MinUpdates: 1, MaxUpdateNorm: math.NaN()},
	}
	for i, c := range bad {
		if _, err := NewServer(c); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
	// +Inf is a legal bound no finite update exceeds: the gate is
	// effectively off, same as 0.
	if _, err := NewServer(ServerConfig{NumClasses: 2, Dim: 8, MinUpdates: 1, MaxUpdateNorm: math.Inf(1)}); err != nil {
		t.Fatalf("MaxUpdateNorm +Inf rejected: %v", err)
	}
}

func TestRoundEndpoint(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{NumClasses: 2, Dim: 8, MinUpdates: 2})
	c := &Client{BaseURL: ts.URL}
	info, err := c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 1 || info.Closed || info.MinUpdates != 2 {
		t.Fatalf("round info %+v", info)
	}
}

func TestFetchModelRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 3, Dim: 16, MinUpdates: 1})
	// give the global model recognizable content
	m, _ := srv.Model()
	_ = m
	c := &Client{BaseURL: ts.URL}
	got, round, err := c.FetchModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 || got.K != 3 || got.D != 16 {
		t.Fatalf("model %dx%d at round %d", got.K, got.D, round)
	}
}

func TestUpdateAggregation(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 2})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	u1 := hdc.NewModel(1, 4)
	u1.SetFlat([]float32{2, 2, 2, 2})
	u2 := hdc.NewModel(1, 4)
	u2.SetFlat([]float32{4, 4, 4, 4})

	if err := c.PushUpdate(ctx, 1, u1); err != nil {
		t.Fatal(err)
	}
	if srv.Round() != 1 {
		t.Fatal("round must not advance before MinUpdates")
	}
	if err := c.PushUpdate(ctx, 1, u2); err != nil {
		t.Fatal(err)
	}
	if srv.Round() != 2 {
		t.Fatalf("round = %d, want 2 after aggregation", srv.Round())
	}
	m, _ := srv.Model()
	for i, v := range m.Flat() {
		if v != 3 { // mean of 2 and 4
			t.Fatalf("aggregated[%d] = %v, want 3", i, v)
		}
	}
}

func TestStaleUpdateRejected(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 1})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	u := hdc.NewModel(1, 4)
	if err := c.PushUpdate(ctx, 1, u); err != nil {
		t.Fatal(err)
	}
	err := c.PushUpdate(ctx, 1, u) // server is now at round 2
	stale, ok := err.(ErrStaleRound)
	if !ok {
		t.Fatalf("expected ErrStaleRound, got %v", err)
	}
	if stale.Sent != 1 || stale.Current != 2 {
		t.Fatalf("stale error %+v", stale)
	}
	if stale.Error() == "" {
		t.Fatal("error string empty")
	}
}

func TestWrongDimsRejected(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{NumClasses: 2, Dim: 8, MinUpdates: 1})
	c := &Client{BaseURL: ts.URL}
	err := c.PushUpdate(context.Background(), 1, hdc.NewModel(2, 16))
	if err == nil {
		t.Fatal("mismatched dims must be rejected")
	}
}

// Any body that is not an envelope is refused on the one quarantine path —
// including a well-formed bare model serialization, the pre-envelope
// upload format.
func TestBadPayloadRejected(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 2, Dim: 8, MinUpdates: 1})
	var bareModel bytes.Buffer
	if _, err := hdc.NewModel(2, 8).WriteTo(&bareModel); err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{[]byte("garbage"), bareModel.Bytes()}
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/update?round=1", "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%q: status %d, want 422", body[:4], resp.StatusCode)
		}
	}
	st := srv.Stats()
	if st.QuarantinedByReason[QuarantineEnvelope] != int64(len(bodies)) || st.UpdatesAccepted != 0 || srv.Round() != 1 {
		t.Fatalf("stats %+v at round %d", st, srv.Round())
	}
}

func TestMissingRoundParam(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{NumClasses: 2, Dim: 8, MinUpdates: 1})
	resp, err := http.Post(ts.URL+"/v1/update", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestServerClosesAfterMaxRounds(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 1, MaxRounds: 2})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	u := hdc.NewModel(1, 4)
	if err := c.PushUpdate(ctx, 1, u); err != nil {
		t.Fatal(err)
	}
	if err := c.PushUpdate(ctx, 2, u); err != nil {
		t.Fatal(err)
	}
	if !srv.Closed() {
		t.Fatal("server should close after MaxRounds")
	}
	if err := c.PushUpdate(ctx, 3, u); err == nil {
		t.Fatal("closed server must reject updates")
	}
}

// encodedClusters builds per-client hypervector shards of a separable
// problem.
func encodedClusters(t *testing.T, numClients int) (shards []*tensor.Tensor, labels [][]int, testEnc *tensor.Tensor, testLabels []int, k, d int) {
	t.Helper()
	k, d = 4, 1024
	rng := rand.New(rand.NewSource(7))
	train := dataset.GenerateVectors(dataset.VectorConfig{
		Name: "c", Classes: k, Features: 16, PerClass: 20, ClassStd: 2, SampleStd: 0.8, Seed: 3})
	test := dataset.GenerateVectors(dataset.VectorConfig{
		Name: "c", Classes: k, Features: 16, PerClass: 6, ClassStd: 2, SampleStd: 0.8, Seed: 3})
	enc := hdc.NewEncoder(rng, d, 16)
	encAll := enc.EncodeBatch(train.X)
	part := dataset.PartitionIID(train.Len(), numClients, rng)
	for _, idx := range part {
		shard := tensor.New(len(idx), d)
		lab := make([]int, len(idx))
		for bi, i := range idx {
			copy(shard.Data()[bi*d:(bi+1)*d], encAll.Data()[i*d:(i+1)*d])
			lab[bi] = train.Labels[i]
		}
		shards = append(shards, shard)
		labels = append(labels, lab)
	}
	return shards, labels, enc.EncodeBatch(test.X), test.Labels, k, d
}

// End-to-end: three networked clients train a global model over HTTP and
// it classifies held-out data.
func TestFederatedTrainingOverHTTP(t *testing.T) {
	const numClients, rounds = 3, 4
	shards, labels, testEnc, testLabels, k, d := encodedClusters(t, numClients)
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: k, Dim: d, MinUpdates: numClients, MaxRounds: rounds})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	contributions := make([]int, numClients)
	errs := make([]error, numClients)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lt := &LocalTrainer{
				Client:  &Client{BaseURL: ts.URL},
				Encoded: shards[i],
				Labels:  labels[i],
				Epochs:  2,
				Poll:    2 * time.Millisecond,
			}
			contributions[i], errs[i] = lt.Participate(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if contributions[i] != rounds {
			t.Fatalf("client %d contributed %d rounds, want %d", i, contributions[i], rounds)
		}
	}
	if !srv.Closed() {
		t.Fatal("server should have closed")
	}
	global, _ := srv.Model()
	if acc := global.Accuracy(testEnc, testLabels); acc < 0.85 {
		t.Fatalf("networked federated accuracy %v, want >= 0.85", acc)
	}
}

// Same as above but through a lossy simulated uplink: accuracy must
// survive, demonstrating the paper's robustness claim over the real wire
// protocol.
func TestFederatedTrainingOverHTTPWithLossyUplink(t *testing.T) {
	const numClients, rounds = 3, 4
	shards, labels, testEnc, testLabels, k, d := encodedClusters(t, numClients)
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: k, Dim: d, MinUpdates: numClients, MaxRounds: rounds})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, rng := channel.PacketLoss{Rate: 0.2, PacketBytes: 256}, rand.New(rand.NewSource(int64(i)))
			lt := &LocalTrainer{
				Client:  &Client{BaseURL: ts.URL},
				Encoded: shards[i],
				Labels:  labels[i],
				Epochs:  2,
				Poll:    2 * time.Millisecond,
				Tamper: func(_ int, local, _ *hdc.Model) {
					copy(local.Flat(), ch.Transmit(local.Flat(), rng))
				},
			}
			if _, err := lt.Participate(ctx); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	global, _ := srv.Model()
	if acc := global.Accuracy(testEnc, testLabels); acc < 0.7 {
		t.Fatalf("lossy networked accuracy %v, want >= 0.7", acc)
	}
}

// A lossy uplink is a Tamper hook that passes the trained model through
// the channel: round by round, the client uploads exactly the envelope a
// client that corrupted the model inside PushUpdate sent,
// EncodeEnvelope(codec, PacketLoss.Transmit(flat, rng)) from the same RNG,
// and the server commits it (one client, so the round's bundle is that
// envelope decoded). The data are random labels on Gaussian
// hypervectors, so every round refines.
func TestLossyTamperUploadsChannelEnvelopes(t *testing.T) {
	const rounds, seed, k, d, n = 4, 9, 4, 64, 300
	rng := rand.New(rand.NewSource(seed))
	enc := tensor.New(n, d)
	for i := range enc.Data() {
		enc.Data()[i] = float32(rng.NormFloat64())
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	srv, err := NewServer(ServerConfig{NumClasses: k, Dim: d, MinUpdates: 1, MaxRounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	var uploads [][]byte
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			uploads = append(uploads, body) // one client: posts never overlap
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	ch, codec := channel.PacketLoss{Rate: 0.3, PacketBytes: 64}, compress.Int8{}
	rng.Seed(seed)
	lt := &LocalTrainer{
		Client:  &Client{BaseURL: ts.URL, Codec: codec},
		Encoded: enc,
		Labels:  labels,
		Epochs:  2,
		Poll:    time.Millisecond,
		Tamper: func(_ int, local, _ *hdc.Model) {
			copy(local.Flat(), ch.Transmit(local.Flat(), rng))
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if n, err := lt.Participate(ctx); err != nil || n != rounds {
		t.Fatalf("contributed %d rounds, err %v; want %d", n, err, rounds)
	}
	if len(uploads) != rounds {
		t.Fatalf("%d uploads, want %d", len(uploads), rounds)
	}

	// The path before the hook: train (bundle once, then up to Epochs
	// refinement epochs), corrupt the flat update, encode it.
	global := hdc.NewModel(k, d)
	refRng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		local := global.Clone()
		if r == 0 {
			local.OneShotTrain(enc, labels)
		}
		for e := 0; e < lt.Epochs; e++ {
			if local.RefineEpoch(enc, labels) == 0 {
				break
			}
		}
		want, err := fedcore.EncodeEnvelope(codec, ch.Transmit(local.Flat(), refRng))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(uploads[r], want) {
			t.Fatalf("round %d: uploaded envelope differs from the channel-then-encode path", r+1)
		}
		sent, _, err := fedcore.DecodeEnvelope(want, k*d)
		if err != nil {
			t.Fatal(err)
		}
		global.SetFlat(sent)
	}
	final, _ := srv.Model()
	if !reflect.DeepEqual(final.Flat(), global.Flat()) {
		t.Fatal("server's final model is not the last upload")
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 1})
	_ = srv
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	u := hdc.NewModel(1, 4)
	if err := c.PushUpdate(ctx, 1, u); err != nil {
		t.Fatal(err)
	}
	if err := c.PushUpdate(ctx, 1, u); err == nil { // stale: server at round 2
		t.Fatal("expected stale rejection")
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UpdatesAccepted != 1 || st.UpdatesRejected != 1 {
		t.Fatalf("stats %+v", st)
	}
	// both posts (one accepted, one stale-rejected) crossed the wire
	if want := 2 * wireSize(1, 4); st.BytesReceived != want {
		t.Fatalf("bytes %d, want %d", st.BytesReceived, want)
	}
	if st.Round != 2 {
		t.Fatalf("round %d", st.Round)
	}
	// One aggregator: the per-shard block has exactly one entry, which
	// saw both uploads, accepted one, and folded it in one commit.
	if st.Shards != 1 || len(st.PerShard) != 1 || st.DeadShards != 0 {
		t.Fatalf("shards = %d, perShard = %+v, dead = %d", st.Shards, st.PerShard, st.DeadShards)
	}
	if ps := st.PerShard[0]; ps.Enqueued != 1 || ps.Accepted != 1 || ps.Commits != 1 || ps.Pending != 0 || ps.Depth != 0 || ps.Dead {
		t.Fatalf("queue stats %+v", ps)
	}
	checkQueueMirrors(t, c, st)
}

// checkQueueMirrors asserts that the per-shard counters read the same
// facts as their top-level twins and /v1/round's pending count.
func checkQueueMirrors(t *testing.T, c *Client, st Stats) {
	t.Helper()
	info, err := c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ps := st.PerShard[0]
	if ps.Accepted != st.UpdatesAccepted || ps.Duplicates != st.DuplicateUpdates ||
		ps.Dropped != st.UpdatesThrottled || ps.Pending != int64(info.UpdatesPending) {
		t.Fatalf("perShard %+v does not mirror accepted/duplicates/throttled %d/%d/%d and pending %d",
			ps, st.UpdatesAccepted, st.DuplicateUpdates, st.UpdatesThrottled, info.UpdatesPending)
	}
}
