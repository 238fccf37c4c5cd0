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
// against the downloaded global. The data is heldOutClusters' at seed.
// Returns the final model's accuracy.
func runRobustFederation(t *testing.T, seed int64, agg fedcore.Aggregator, attacker *faults.Poisoner, colluders map[int]bool) float64 {
	t.Helper()
	const numClients, rounds = 10, 5
	shards, labels, testEnc, testLabels, k, d := heldOutClusters(t, numClients, seed)
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
// mean-based bundle policy the poison drags the global model to chance.
// Coordinate-wise median, the trimmed mean whose trim fraction covers the
// Byzantine fraction (trimmed:0.4 excludes all 4 attackers per
// coordinate), and trimmed:0.25, past its breakdown point (it trims 3
// values per side, so one attacker survives every trim), must all keep
// the model far above the collapsed mean. That ordering is the Yin et al.
// trimmed-mean theory reproduced over a real wire. Mixed wire codecs
// prove the robust policies compose with every envelope.
//
// It asserts at fixture seeds 1-5, each drawing the data, encoder,
// partition, colluders and attack, with 50 held-out test samples per
// class. The median does not hold within 0.05 of its clean run at every
// seed: at seed 2 it reads 0.75-0.79 against 1.000 at every test-set
// size tried (EXPERIMENTS.md, "The median under attack across fixture seeds"), so
// that claim is retracted for this 16-feature task (DESIGN.md Sec. 10).
// Seeded end to end; run under -race -shuffle=on by make chaos.
func TestByzantineRobustAggregation(t *testing.T) {
	order := []string{"bundle", "median", "trimmed:0.25", "trimmed:0.4"}
	for seed := int64(1); seed <= 5; seed++ {
		colluders := faults.Colluders(seed, 10, 0.4)
		if len(colluders) != 4 {
			t.Fatalf("seed %d: colluder set %v, want 4 of 10", seed, colluders)
		}
		clean := make(map[string]float64)
		poisoned := make(map[string]float64)
		for _, spec := range order {
			build := func() fedcore.Aggregator {
				agg, err := fedcore.ParseAggregator(spec)
				if err != nil {
					t.Fatal(err)
				}
				return agg
			}
			attack := &faults.Poisoner{Kind: faults.AttackScale, Lambda: -2, Seed: seed}
			clean[spec] = runRobustFederation(t, seed, build(), nil, nil)
			poisoned[spec] = runRobustFederation(t, seed, build(), attack, colluders)
			t.Logf("seed %d %-14s clean %.3f  poisoned(40%% scale:-2) %.3f", seed, spec, clean[spec], poisoned[spec])
		}

		for _, spec := range order {
			if clean[spec] < 0.85 {
				t.Errorf("seed %d %s: clean accuracy %.3f, want >= 0.85 (baseline too weak to test against)", seed, spec, clean[spec])
			}
		}
		// The mean-based policy must measurably degrade — that is what
		// makes the robust rows meaningful.
		if poisoned["bundle"] > clean["bundle"]-0.30 {
			t.Errorf("seed %d: bundle under poison %.3f vs clean %.3f: attack too weak to demonstrate anything",
				seed, poisoned["bundle"], clean["bundle"])
		}
		// Every robust policy, the one past its breakdown point too, loses
		// at most some accuracy but not the model.
		for _, spec := range order[1:] {
			if poisoned[spec] < poisoned["bundle"]+0.40 {
				t.Errorf("seed %d: %s under poison %.3f vs bundle %.3f: robust policy did not hold the model",
					seed, spec, poisoned[spec], poisoned["bundle"])
			}
		}
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
