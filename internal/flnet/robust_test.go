package flnet

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/faults"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
)

// runRobustFederation drives one lockstep federation over real HTTP: n
// clients, every round closed only when everyone contributed, clean
// transports (the chaos here is Byzantine content, not a lossy channel).
// Clients cycle through the nil-Codec default and the dense codecs so the
// robust aggregators are exercised against lossless and lossy envelopes.
// Colluding clients train honestly and then corrupt their upload's delta
// against the downloaded global. Returns the final model's accuracy.
func runRobustFederation(t *testing.T, agg fedcore.Aggregator, attacker *faults.Poisoner, colluders map[int]bool) float64 {
	t.Helper()
	const numClients, rounds = 10, 5
	shards, labels, testEnc, testLabels, k, d := encodedClusters(t, numClients)
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: k,
		Dim:        d,
		MinUpdates: numClients,
		MaxRounds:  rounds,
		// Pure safety valve: with clean transports every round closes by
		// MinUpdates, so the run is deterministic.
		RoundDeadline: 30 * time.Second,
		MaxUpdateNorm: 1e9,
		Aggregator:    agg,
	})

	codecs := []compress.Codec{nil, compress.Raw{}, compress.Int8{}, compress.Float16{}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	contributions := make([]int, numClients)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lt := &LocalTrainer{
				Client: &Client{
					BaseURL: ts.URL,
					ID:      "robust-" + string(rune('a'+i)),
					Codec:   codecs[i%len(codecs)],
				},
				Encoded: shards[i],
				Labels:  labels[i],
				Epochs:  2,
				Poll:    2 * time.Millisecond,
			}
			if attacker != nil && colluders[i] {
				lt.Tamper = func(round int, local, global *hdc.Model) {
					attacker.Corrupt(local.Flat(), global.Flat(), round, i)
				}
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
			t.Fatalf("client %d contributed %d rounds, want %d (lockstep broke)",
				i, contributions[i], rounds)
		}
	}
	if !srv.Closed() {
		t.Fatal("server did not complete MaxRounds")
	}
	st := srv.Stats()
	if st.UpdatesQuarantined != 0 {
		// The whole point of this adversary: finite, norm-plausible
		// updates that sail through the quarantine gate and can only be
		// neutralized by the aggregation policy.
		t.Fatalf("quarantine caught %d updates; the Byzantine updates must reach the aggregator", st.UpdatesQuarantined)
	}
	global, _ := srv.Model()
	return global.Accuracy(testEnc, testLabels)
}

// TestByzantineRobustAggregation is the acceptance scenario for the
// robust-aggregation layer: 10 networked clients, 4 of them colluding
// poisoners running the scaled sign-flip attack (delta x -2: finite,
// norm-plausible, undetectable by the quarantine gate). Under the default
// mean-based bundle policy the poison drags the global model to chance;
// coordinate-wise median keeps accuracy within a small epsilon of the
// poison-free baseline, and so does the trimmed mean once its trim
// fraction covers the Byzantine fraction (trimmed:0.4 excludes all 4
// attackers per coordinate). trimmed:0.25 sits past its breakdown point —
// it trims 3 values per side, so one attacker survives every trim — and
// must degrade only gracefully: far above the collapsed mean, below the
// covered policies. That ordering is the Yin et al. trimmed-mean theory
// reproduced over a real wire. Mixed wire codecs prove the robust
// policies compose with every envelope. Seeded end to end; run under
// -race -shuffle=on by make chaos.
func TestByzantineRobustAggregation(t *testing.T) {
	const attackSeed = 7
	colluders := faults.Colluders(attackSeed, 10, 0.4)
	if len(colluders) != 4 {
		t.Fatalf("colluder set %v, want 4 of 10", colluders)
	}
	attack := func() *faults.Poisoner {
		return &faults.Poisoner{Kind: faults.AttackScale, Lambda: -2, Seed: attackSeed}
	}

	type result struct {
		name            string
		clean, poisoned float64
	}
	results := make(map[string]result)
	order := []string{"bundle", "median", "trimmed:0.25", "trimmed:0.4"}
	for _, spec := range order {
		build := func() fedcore.Aggregator {
			agg, err := fedcore.ParseAggregator(spec)
			if err != nil {
				t.Fatal(err)
			}
			return agg
		}
		clean := runRobustFederation(t, build(), nil, nil)
		poisoned := runRobustFederation(t, build(), attack(), colluders)
		results[spec] = result{spec, clean, poisoned}
	}

	t.Log("aggregator      clean  poisoned(40% scale:-2)")
	for _, spec := range order {
		r := results[spec]
		t.Logf("%-14s %.3f  %.3f", r.name, r.clean, r.poisoned)
	}

	const eps = 0.05 // covered robust policies stay within eps of their clean run
	for _, spec := range order {
		r := results[spec]
		if r.clean < 0.85 {
			t.Errorf("%s: clean accuracy %.3f, want >= 0.85 (baseline too weak to test against)", r.name, r.clean)
		}
	}
	bundle, median := results["bundle"], results["median"]
	partial, covered := results["trimmed:0.25"], results["trimmed:0.4"]
	// The mean-based policy must measurably degrade — that is what makes
	// the robust rows meaningful.
	if bundle.poisoned > bundle.clean-0.30 {
		t.Errorf("bundle under poison %.3f vs clean %.3f: attack too weak to demonstrate anything",
			bundle.poisoned, bundle.clean)
	}
	for _, r := range []result{median, covered} {
		if r.poisoned < r.clean-eps {
			t.Errorf("%s under poison %.3f vs clean %.3f: robust policy failed to hold within %.2f",
				r.name, r.poisoned, r.clean, eps)
		}
	}
	// Past its breakdown point, the trimmed mean loses accuracy but not
	// the model: it must stay far above the collapsed mean.
	if partial.poisoned < bundle.poisoned+0.40 {
		t.Errorf("trimmed:0.25 under poison %.3f vs bundle %.3f: graceful-degradation margin lost",
			partial.poisoned, bundle.poisoned)
	}
}

// TestNormClipServerPolicy: a clip:BOUND:bundle aggregator rescales
// norm-inflated updates instead of quarantining them, and the server
// reports how often it fired.
func TestNormClipServerPolicy(t *testing.T) {
	clip := &fedcore.NormClip{Inner: &fedcore.Bundle{}, Bound: 4}
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 2, Aggregator: clip,
	})
	ctx := context.Background()

	mild := hdc.NewModel(1, 4)
	mild.SetFlat([]float32{1, 1, 1, 1}) // norm 2, under the bound
	loud := hdc.NewModel(1, 4)
	loud.SetFlat([]float32{0, 300, 0, 0}) // norm 300, clipped to 4
	c1 := &Client{BaseURL: ts.URL, ID: "mild"}
	c2 := &Client{BaseURL: ts.URL, ID: "loud"}
	if err := c1.PushUpdate(ctx, 1, mild); err != nil {
		t.Fatal(err)
	}
	if err := c2.PushUpdate(ctx, 1, loud); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Aggregator != "clip:4:bundle" {
		t.Fatalf("stats aggregator %q, want clip:4:bundle", st.Aggregator)
	}
	if st.UpdatesClipped != 1 {
		t.Fatalf("UpdatesClipped = %d, want 1", st.UpdatesClipped)
	}
	if st.UpdatesQuarantined != 0 {
		t.Fatalf("clip policy must not quarantine, got %d", st.UpdatesQuarantined)
	}
	// The committed aggregate saw the clipped copy: coordinate 1 is
	// (1 + 4)/2, not (1 + 300)/2.
	m, _ := srv.Model()
	if got := m.Flat()[1]; math.Abs(float64(got)-2.5) > 1e-5 {
		t.Fatalf("aggregate[1] = %v, want 2.5 (clipped to the bound before the mean)", got)
	}
}

// TestQuarantineReasonBreakdown drives one update into each refusal path
// and checks the per-reason stats split: non-finite parameter, norm-bound
// violation, mangled envelope header, and envelope checksum mismatch.
func TestQuarantineReasonBreakdown(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 99, MaxUpdateNorm: 10,
	})
	ctx := context.Background()

	expectQuarantine := func(err error, what string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s was accepted", what)
		}
	}

	nan := hdc.NewModel(1, 4)
	nan.Flat()[0] = float32(math.NaN())
	expectQuarantine((&Client{BaseURL: ts.URL}).PushUpdate(ctx, 1, nan), "non-finite update")

	loud := hdc.NewModel(1, 4)
	loud.SetFlat([]float32{100, 0, 0, 0}) // norm 100 > 10
	expectQuarantine((&Client{BaseURL: ts.URL}).PushUpdate(ctx, 1, loud), "norm-exploded update")

	post := func(body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/update?round=1", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", EnvelopeContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	good, err := fedcore.EncodeEnvelope(compress.Raw{}, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	mangled := append([]byte(nil), good...)
	mangled[0] ^= 0xFF // break the magic: structurally bad envelope
	if code := post(mangled); code != http.StatusUnprocessableEntity {
		t.Fatalf("mangled envelope -> %d, want 422", code)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01 // corrupt the payload: checksum mismatch
	if code := post(flipped); code != http.StatusUnprocessableEntity {
		t.Fatalf("checksum-corrupt envelope -> %d, want 422", code)
	}

	st := srv.Stats()
	want := map[string]int64{
		QuarantineNonFinite: 1,
		QuarantineNormBound: 1,
		QuarantineEnvelope:  1,
		QuarantineChecksum:  1,
	}
	if st.UpdatesQuarantined != 4 {
		t.Fatalf("UpdatesQuarantined = %d, want 4 (%+v)", st.UpdatesQuarantined, st.QuarantinedByReason)
	}
	for reason, n := range want {
		if st.QuarantinedByReason[reason] != n {
			t.Fatalf("QuarantinedByReason[%s] = %d, want %d (full: %+v)",
				reason, st.QuarantinedByReason[reason], n, st.QuarantinedByReason)
		}
	}
	if st.UpdatesAccepted != 0 {
		t.Fatalf("accepted %d updates in a quarantine-only test", st.UpdatesAccepted)
	}
}
