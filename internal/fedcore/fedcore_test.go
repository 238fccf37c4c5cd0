package fedcore

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fhdnn/internal/channel"
	"fhdnn/internal/compress"
)

func TestFedAvgWeighting(t *testing.T) {
	a := &FedAvg{}
	a.Add(Update{Params: []float32{1, 0}, Samples: 1})
	a.Add(Update{Params: []float32{4, 2}, Samples: 3})
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	global := []float32{9, 9}
	a.Commit(global)
	// (1*1 + 3*4)/4 = 3.25, (1*0 + 3*2)/4 = 1.5
	if global[0] != 3.25 || global[1] != 1.5 {
		t.Fatalf("FedAvg commit = %v", global)
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatal("Reset must clear updates")
	}
	global = []float32{7, 7}
	a.Commit(global)
	if global[0] != 7 || global[1] != 7 {
		t.Fatal("empty commit must carry the global forward")
	}
}

func TestBundleMeanAndMask(t *testing.T) {
	b := &Bundle{}
	b.Add(Update{Params: []float32{2, 4, 6}})
	b.Add(Update{Params: []float32{4, 8, 10}})
	global := []float32{0, 0, 0}
	b.Commit(global)
	if global[0] != 3 || global[1] != 6 || global[2] != 8 {
		t.Fatalf("Bundle commit = %v", global)
	}
	b.Reset()

	b.Mask = []int{1}
	b.Add(Update{Params: []float32{100, 10, 100}})
	global = []float32{1, 1, 1}
	b.Commit(global)
	if global[0] != 1 || global[1] != 10 || global[2] != 1 {
		t.Fatalf("masked commit must only refresh mask entries, got %v", global)
	}
}

func TestSampleClients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := SampleClients(rng, 100, 0.2)
	if len(ids) != 20 {
		t.Fatalf("sampled %d, want 20", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ids must be sorted and distinct")
		}
	}
	if len(SampleClients(rng, 10, 0.01)) != 1 {
		t.Fatal("must sample at least one client")
	}
	if len(SampleClients(rng, 5, 1.0)) != 5 {
		t.Fatal("frac=1 must sample everyone")
	}
}

func TestClientRNGDeterminism(t *testing.T) {
	if ClientRNG(1, 2, 3).Int63() != ClientRNG(1, 2, 3).Int63() {
		t.Fatal("same key must give the same stream")
	}
	base := ClientRNG(1, 2, 3).Int63()
	if ClientRNG(1, 3, 3).Int63() == base && ClientRNG(1, 2, 4).Int63() == base {
		t.Fatal("streams should differ across rounds and ids")
	}
}

// toyEngine builds an engine whose "training" returns toyParam and
// toyLoss for each client, so aggregation results are fully predictable.
// Its 32 clients at fraction 0.5 give 16 participants in each of 6 rounds.
func toyEngine(workers int, uplink channel.Channel) (*Engine, *[]RoundStats, []float32) {
	global := make([]float32, 4)
	var stats []RoundStats
	e := &Engine{
		Clients: 32, Fraction: 0.5, Rounds: 6, Seed: 11,
		Parallel: workers, Uplink: uplink,
		SampleRNG: ClientRNG(11, 0, -1),
		Agg:       &Bundle{},
		Global:    global,
		Train: func(worker, round, id int, rng *rand.Rand) (Update, bool) {
			u := Update{Params: make([]float32, 4), Samples: 1, Loss: toyLoss(round, id)}
			for i := range u.Params {
				u.Params[i] = toyParam(round, id, i)
			}
			return u, true
		},
		Evaluate: func() float64 { return float64(global[0]) },
		OnRound:  func(st RoundStats) { stats = append(stats, st) },
	}
	return e, &stats, global
}

// toyParam and toyLoss spread a round's values over some 80 binary orders
// of magnitude, so neither a float64 sum of the updates nor one of the
// losses is exact: either comes out with other bits when the adds come in
// another order.
func toyParam(round, id, i int) float32 {
	return float32(math.Ldexp(1+float64(id%7)/7, (id*11+round*5+i*3)%81-40))
}

func toyLoss(round, id int) float64 {
	return math.Ldexp(1+1/float64(id+round+2), (id*7+round)%81-40)
}

// recordAgg bundles like Bundle and keeps every update it was given,
// across Reset.
type recordAgg struct {
	Bundle
	adds []Update
}

func (a *recordAgg) Add(u Update) {
	a.adds = append(a.adds, u)
	a.Bundle.Add(u)
}

// Over a perfect uplink (the default) the aggregator gets Train's own
// buffer, which is why Train must leave it alone until AfterCommit; any
// other uplink hands over a fresh copy and leaves Train's buffer as it was.
func TestEngineUplinkBufferOwnership(t *testing.T) {
	for _, tc := range []struct {
		name   string
		uplink channel.Channel
		alias  bool
	}{
		{"default", nil, true},
		{"perfect", channel.Perfect{}, true},
		{"awgn", channel.AWGN{SNRdB: 10}, false},
	} {
		e, _, _ := toyEngine(2, tc.uplink)
		agg := &recordAgg{}
		e.Agg = agg
		var mu sync.Mutex
		trained := map[int][]float32{} // client -> the buffer Train returned this round
		train := e.Train
		e.Train = func(worker, round, id int, rng *rand.Rand) (Update, bool) {
			u, ok := train(worker, round, id, rng)
			mu.Lock()
			trained[id] = u.Params
			mu.Unlock()
			return u, ok
		}
		checked := 0
		e.AfterCommit = func(round int) {
			for _, u := range agg.adds {
				buf := trained[u.Client]
				if same := &u.Params[0] == &buf[0]; same != tc.alias {
					t.Errorf("%s: round %d client %d: Add got Train's buffer = %v, want %v", tc.name, round, u.Client, same, tc.alias)
				}
				for i, v := range buf {
					if want := toyParam(round, u.Client, i); v != want {
						t.Errorf("%s: round %d client %d: Train's buffer[%d] = %v after the uplink, want %v", tc.name, round, u.Client, i, v, want)
					}
				}
				checked++
			}
			agg.adds = agg.adds[:0]
			clear(trained)
		}
		e.Run()
		if checked == 0 {
			t.Fatalf("%s: no update reached the aggregator", tc.name)
		}
	}
}

// A round adds its updates in the ascending client order SampleClients
// returns, after every worker has joined, and sums the mean loss in that
// order too; so the stats and the global are bit-identical for any worker
// count. toyEngine's values make any other order (map order, say) move
// bits, and with 16 participants in each of 6 rounds a shuffled order
// cannot pass for the ascending one by chance.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]RoundStats, []float32) {
		e, stats, global := toyEngine(workers, channel.AWGN{SNRdB: 20})
		agg := &recordAgg{}
		e.Agg = agg
		sampler := ClientRNG(e.Seed, 0, -1) // replays e.SampleRNG's draws
		var wantLoss []float64
		e.AfterCommit = func(round int) {
			ids := SampleClients(sampler, e.Clients, e.Fraction)
			if len(agg.adds) != len(ids) {
				t.Fatalf("workers %d, round %d: %d adds for %d sampled clients", workers, round, len(agg.adds), len(ids))
			}
			var sum float64
			for i, id := range ids {
				if got := agg.adds[i].Client; got != id {
					t.Fatalf("workers %d, round %d: add %d came from client %d, want %d (the order of %v)", workers, round, i, got, id, ids)
				}
				sum += toyLoss(round, id)
			}
			wantLoss = append(wantLoss, sum/float64(len(ids)))
			agg.adds = agg.adds[:0]
		}
		e.Run()
		for i, st := range *stats {
			if math.Float64bits(st.TrainLoss) != math.Float64bits(wantLoss[i]) {
				t.Fatalf("workers %d, round %d: TrainLoss %v, want the ascending-order mean %v", workers, st.Round, st.TrainLoss, wantLoss[i])
			}
		}
		return *stats, global
	}
	s1, g1 := run(1)
	s4, g4 := run(4)
	if len(s1) != 6 || len(s4) != 6 {
		t.Fatalf("round counts %d/%d, want 6", len(s1), len(s4))
	}
	for i := range s1 {
		if s1[i] != s4[i] {
			t.Fatalf("round %d stats differ: %+v vs %+v", i+1, s1[i], s4[i])
		}
	}
	for i := range g1 {
		if g1[i] != g4[i] {
			t.Fatalf("global[%d] differs: %v vs %v", i, g1[i], g4[i])
		}
	}
}

// The worker pool joins before aggregation: every goroutine Run starts
// has exited by the time it returns, even with more sampled clients than
// workers. A worker exits just after its wg.Done, so the count is polled
// briefly; goroutines of earlier tests may still be winding down, so it
// may fall but must not rise.
func TestEngineRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e, stats, _ := toyEngine(4, nil)
	e.Clients, e.Fraction, e.Rounds = 16, 1, 2
	e.Run()
	if len(*stats) != 2 || (*stats)[1].Participants != 16 {
		t.Fatalf("rounds = %+v, want 2 rounds of 16 participants", *stats)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Engine.Run left %d goroutines behind", n-before)
	}
}

func TestEngineTrafficAccounting(t *testing.T) {
	e, stats, _ := toyEngine(1, nil)
	e.Run()
	for _, st := range *stats {
		if st.BytesUplinked != int64(st.Participants*4*4) {
			t.Fatalf("round %d: %d bytes for %d participants", st.Round, st.BytesUplinked, st.Participants)
		}
	}

	// A codec uplink must be charged envelope-framed compressed size.
	up := compress.Uplink{C: compress.Int8{}}
	e2, stats2, _ := toyEngine(1, up)
	e2.Run()
	want := int64(WireBytes(compress.Int8{}, 4))
	for _, st := range *stats2 {
		if st.BytesUplinked != want*int64(st.Participants) {
			t.Fatalf("codec accounting: %d bytes, want %d per participant", st.BytesUplinked, want)
		}
	}
}

func TestUpdateWireBytes(t *testing.T) {
	if got := UpdateWireBytes(channel.Perfect{}, 100, 4); got != 400 {
		t.Fatalf("raw accounting = %d", got)
	}
	up := compress.Uplink{C: compress.Float16{}}
	if got, want := UpdateWireBytes(up, 100, 4), int64(EnvelopeOverhead+200); got != want {
		t.Fatalf("codec accounting = %d, want %d", got, want)
	}
}

func TestEngineWorkersDefault(t *testing.T) {
	e := &Engine{}
	if e.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", e.Workers())
	}
	e.Parallel = 8
	if e.Workers() != 8 {
		t.Fatalf("Workers() = %d, want 8", e.Workers())
	}
}
