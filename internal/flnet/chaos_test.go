package flnet

import (
	"context"
	"errors"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"fhdnn/internal/faults"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// TestChaosFederatedRound is the acceptance scenario for the
// fault-tolerance layer: 8 clients train through transports injecting 30%
// connection failures (plus truncated bodies and 5xx bursts), 2 of the 8
// crash mid-round-2, and a ninth adversarial client pushes a non-finite
// update every round. The server must still complete all MaxRounds —
// rounds that lost the crashed clients are force-closed by the deadline —
// every poisoned update must be quarantined before touching the global
// model, and every surviving client's retry loop must land an update in
// every round. All fault decisions are seeded, and the test is run under
// -race in CI.
func TestChaosFederatedRound(t *testing.T) {
	const (
		numClients = 8
		maxRounds  = 4
		seedBase   = 1000
	)
	crash := faults.CrashSchedule{2: 2, 5: 2} // die during round 2
	shards, labels, testEnc, testLabels, k, d := encodedClusters(t, numClients)

	srv, ts := newTestServer(t, ServerConfig{
		NumClasses:    k,
		Dim:           d,
		MinUpdates:    numClients, // only reachable in round 1; later rounds need the deadline
		MaxRounds:     maxRounds,
		RoundDeadline: time.Second,
		MaxUpdateNorm: 1e9,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	newFaultyClient := func(i int) *Client {
		return &Client{
			BaseURL: ts.URL,
			ID:      "chaos-" + string(rune('a'+i)),
			HTTPClient: &http.Client{Transport: faults.NewTransport(faults.Config{
				FailRate:     0.30,
				TruncateRate: 0.10,
				Error5xxRate: 0.05,
				BurstLen:     2,
				Seed:         seedBase + int64(i),
			})},
			Retry: &RetryPolicy{MaxAttempts: 6, BaseDelay: 2 * time.Millisecond},
		}
	}

	var wg sync.WaitGroup
	contributions := make([]int, numClients)
	errs := make([]error, numClients)

	// Survivors run the hardened LocalTrainer loop.
	for i := 0; i < numClients; i++ {
		if _, dies := crash[i]; dies {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lt := &LocalTrainer{
				Client:  newFaultyClient(i),
				Encoded: shards[i],
				Labels:  labels[i],
				Epochs:  2,
				Poll:    2 * time.Millisecond,
			}
			contributions[i], errs[i] = lt.Participate(ctx)
		}(i)
	}

	// Crashing clients participate normally until their scheduled round,
	// then die mid-round: model downloaded, update never sent.
	for i := range crash {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			contributions[i] = runUntilCrash(ctx, t, newFaultyClient(i), crash, i, shards[i], labels[i])
		}(i)
	}

	// The adversary pushes an Inf-poisoned update every round over a
	// clean transport (so every attempt reaches the quarantine gate).
	poisonQuarantined := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		poisonQuarantined = runPoisoner(ctx, t, &Client{BaseURL: ts.URL, ID: "poison"}, k, d)
	}()

	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("chaos run blew the deadline budget")
	}

	if !srv.Closed() {
		t.Fatal("server did not complete MaxRounds")
	}
	st := srv.Stats()
	if st.Round != maxRounds+1 {
		t.Fatalf("round %d, want %d", st.Round, maxRounds+1)
	}
	// Rounds 2..4 lost the crashed clients and can only close by deadline.
	if st.RoundsForcedByDeadline < maxRounds-1 {
		t.Fatalf("stats %+v: want >= %d deadline-forced rounds", st, maxRounds-1)
	}
	// Every poisoned update was quarantined, and the stats agree with the
	// adversary's own count of 422 answers.
	if poisonQuarantined == 0 {
		t.Fatal("poisoner never got through to the quarantine gate; test proves nothing")
	}
	if st.UpdatesQuarantined != int64(poisonQuarantined) {
		t.Fatalf("server quarantined %d, poisoner counted %d", st.UpdatesQuarantined, poisonQuarantined)
	}
	// The poison never reached the model.
	global, _ := srv.Model()
	for i, v := range global.Flat() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("global model[%d] = %v: poison leaked past quarantine", i, v)
		}
	}
	// Surviving clients' retry loops contributed to every round; the
	// crashed clients got exactly their pre-crash rounds in.
	for i := 0; i < numClients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if dieRound, dies := crash[i]; dies {
			if contributions[i] != dieRound-1 {
				t.Fatalf("crashed client %d contributed %d rounds, want %d", i, contributions[i], dieRound-1)
			}
		} else if contributions[i] != maxRounds {
			t.Fatalf("surviving client %d contributed %d rounds, want %d", i, contributions[i], maxRounds)
		}
	}
	// And the model the chaos produced still classifies.
	if acc := global.Accuracy(testEnc, testLabels); acc < 0.7 {
		t.Fatalf("post-chaos accuracy %v, want >= 0.7", acc)
	}
}

// runUntilCrash participates like a trainer until the crash schedule says
// this client dies: in its fatal round it downloads the model and then
// vanishes without pushing, exactly the half-finished state a real edge
// device leaves behind.
func runUntilCrash(ctx context.Context, t *testing.T, cl *Client, crash faults.CrashSchedule, id int, encoded *tensor.Tensor, lab []int) int {
	contributed := 0
	lastRound := 0
	bundled := false
	for {
		info, err := cl.Round(ctx)
		if err != nil {
			if ctx.Err() != nil {
				t.Errorf("crash client %d: %v", id, err)
				return contributed
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if info.Closed {
			return contributed
		}
		if info.Round == lastRound {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		global, round, err := cl.FetchModel(ctx)
		if err != nil {
			if ctx.Err() != nil {
				t.Errorf("crash client %d: %v", id, err)
				return contributed
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if crash.ShouldCrash(id, round) {
			return contributed // dies mid-round
		}
		local := global.Clone()
		if !bundled {
			local.OneShotTrain(encoded, lab)
			bundled = true
		}
		local.RefineEpoch(encoded, lab)
		switch err := cl.PushUpdate(ctx, round, local); err.(type) {
		case nil:
			contributed++
			lastRound = round
		case ErrStaleRound:
			continue
		default:
			if ctx.Err() != nil {
				t.Errorf("crash client %d push: %v", id, err)
				return contributed
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// runPoisoner pushes one Inf-poisoned update per round and returns how
// many times the server answered 422.
func runPoisoner(ctx context.Context, t *testing.T, cl *Client, k, d int) int {
	quarantined := 0
	lastRound := 0
	for {
		info, err := cl.Round(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return quarantined
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if info.Closed {
			return quarantined
		}
		if info.Round == lastRound {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		poison := hdc.NewModel(k, d)
		poison.Flat()[0] = float32(math.Inf(1))
		err = cl.PushUpdate(ctx, info.Round, poison)
		var q ErrQuarantined
		switch {
		case errors.As(err, &q):
			quarantined++
			lastRound = info.Round
		case isStale(err):
			// raced with a round close; try again in the new round
		case err == nil:
			t.Errorf("poisoned update for round %d was accepted", info.Round)
			lastRound = info.Round
		default:
			var he *HTTPError
			if errors.As(err, &he) && he.StatusCode == http.StatusGone {
				return quarantined
			}
			if ctx.Err() != nil {
				return quarantined
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func isStale(err error) bool {
	var s ErrStaleRound
	return errors.As(err, &s)
}
