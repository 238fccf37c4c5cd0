package fedcore

import (
	"fmt"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

// shardedUpdates builds n updates with client identities, so hash routing
// has something to route by. Integer-valued params keep float64
// accumulation exact (see randomUpdates); non-unit sample weights
// exercise FedAvg's weighted path.
func shardedUpdates(rng *rand.Rand, n, d int, integer bool) []Update {
	ups := randomUpdates(rng, n, d, integer)
	for i := range ups {
		ups[i].ClientID = fmt.Sprintf("edge-%03d", i)
		ups[i].Samples = 1 + rng.Intn(4)
	}
	return ups
}

// TestShardedBitIdentity is the tentpole property: for every inner policy,
// every shard count 1..8, every tested add order, and every tensor worker
// count 1..8, the sharded commit is bit-identical to the flat aggregator.
// Mean policies (fedavg, bundle) get integer-valued updates, where
// float64 addition is exact and therefore associative; the sorting
// policies (median, trimmed) are exactly permutation-invariant and get
// arbitrary floats. Mirrors TestRobustBitIdenticalAcrossWorkers: the
// worker sweep proves the shared tensor pool cannot leak into the
// aggregation math.
func TestShardedBitIdentity(t *testing.T) {
	type policy struct {
		spec    string
		integer bool
	}
	policies := []policy{
		{"fedavg", true},
		{"bundle", true},
		{"median", false},
		{"trimmed:0.25", false},
		{"clip:9:median", false},
	}
	const n, d = 24, 97
	defer tensor.SetWorkers(tensor.Workers())
	for _, pol := range policies {
		rng := rand.New(rand.NewSource(1234))
		ups := shardedUpdates(rng, n, d, pol.integer)
		build := func() Aggregator {
			a, err := ParseAggregator(pol.spec)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		want := commitAll(build(), ups, d)
		for shards := 1; shards <= 8; shards++ {
			sh, err := NewSharded(shards, build)
			if err != nil {
				t.Fatal(err)
			}
			order := make([]Update, n)
			copy(order, ups)
			for trial := 0; trial < 3; trial++ {
				rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
				workers := 1 + (shards+trial)%8
				tensor.SetWorkers(workers)
				got := commitAll(sh, order, d)
				for j := range want {
					if want[j] != got[j] {
						t.Fatalf("%s with %d shards, trial %d, %d workers: coordinate %d differs from flat: %v vs %v",
							pol.spec, shards, trial, workers, j, want[j], got[j])
					}
				}
			}
		}
	}
}

// The engine determinism contract holds with a sharded tree as the Agg:
// bit-identical globals for every worker count, mirroring
// TestRobustBitIdenticalAcrossWorkers.
func TestShardedBitIdenticalAcrossEngineWorkers(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	run := func(workers int) []float32 {
		tensor.SetWorkers(workers)
		agg, err := NewSharded(4, func() Aggregator { return &Median{} })
		if err != nil {
			t.Fatal(err)
		}
		global := make([]float32, 16)
		e := &Engine{
			Clients: 12, Fraction: 0.75, Rounds: 5, Seed: 99,
			Parallel:  workers,
			SampleRNG: ClientRNG(99, 0, -1),
			Agg:       agg,
			Global:    global,
			Train: func(_, round, id int, rng *rand.Rand) (Update, bool) {
				u := Update{Params: make([]float32, 16), Samples: 1, Client: id}
				for i := range u.Params {
					u.Params[i] = float32(id+round) + float32(rng.NormFloat64())
				}
				return u, true
			},
			Evaluate: func() float64 { return float64(global[0]) },
			OnRound:  func(RoundStats) {},
		}
		e.Run()
		return global
	}
	want := run(1)
	for workers := 2; workers <= 8; workers++ {
		got := run(workers)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("sharded engine global[%d] differs between 1 and %d workers: %v vs %v",
					j, workers, want[j], got[j])
			}
		}
	}
}

func TestShardedRouting(t *testing.T) {
	sh, err := NewSharded(4, func() Aggregator { return &Bundle{} })
	if err != nil {
		t.Fatal(err)
	}
	// Stable: the same identity always lands on the same shard.
	for _, id := range []string{"", "a", "edge-007", "poisoner"} {
		first := shardIndex(id, 4)
		if first < 0 || first >= 4 {
			t.Fatalf("shardIndex(%q, 4) = %d, out of range", id, first)
		}
		for i := 0; i < 10; i++ {
			if got := shardIndex(id, 4); got != first {
				t.Fatalf("shardIndex(%q) unstable: %d then %d", id, first, got)
			}
		}
	}
	// ClientID wins over the numeric id; numeric id routes by modulo.
	if got := sh.ShardFor(Update{ClientID: "x", Client: 1}); got != shardIndex("x", 4) {
		t.Fatalf("ShardFor with ClientID routed to %d, want hash shard %d", got, shardIndex("x", 4))
	}
	if got := sh.ShardFor(Update{Client: 7}); got != 3 {
		t.Fatalf("ShardFor(Client 7) = %d, want 3", got)
	}
	// Adds land where ShardFor says and nowhere else.
	u := Update{ClientID: "edge-1", Params: []float32{1, 2}, Samples: 1}
	sh.Add(u)
	want := sh.ShardFor(u)
	for i := 0; i < sh.Shards(); i++ {
		wantLen := 0
		if i == want {
			wantLen = 1
		}
		if got := sh.Shard(i).Len(); got != wantLen {
			t.Fatalf("shard %d Len = %d, want %d", i, got, wantLen)
		}
	}
	if sh.Len() != 1 {
		t.Fatalf("total Len = %d, want 1", sh.Len())
	}
	sh.Reset()
	if sh.Len() != 0 {
		t.Fatal("Reset must clear every shard")
	}
}

// CommitLive with a live mask folds only the surviving shards — the
// degraded partial-aggregation path — and leaves shard state untouched
// until Reset.
func TestShardedCommitLivePartial(t *testing.T) {
	sh, err := NewSharded(2, func() Aggregator { return &Bundle{} })
	if err != nil {
		t.Fatal(err)
	}
	sh.Shard(0).Add(Update{Params: []float32{2}, Samples: 1})
	sh.Shard(0).Add(Update{Params: []float32{4}, Samples: 1})
	sh.Shard(1).Add(Update{Params: []float32{100}, Samples: 1})

	g := []float32{0}
	sh.CommitLive(g, []bool{true, false}) // shard 1 presumed dead
	if g[0] != 3 {
		t.Fatalf("partial commit = %v, want mean(2,4) = 3", g[0])
	}
	// Non-destructive fold: a full commit afterwards still sees everything.
	g[0] = 0
	sh.CommitLive(g, nil)
	if g[0] != float32(106.0/3.0) {
		t.Fatalf("full commit = %v, want mean(2,4,100)", g[0])
	}
	// All shards dead or empty: the previous global carries forward.
	g[0] = 7
	sh.CommitLive(g, []bool{false, false})
	if g[0] != 7 {
		t.Fatalf("all-dead commit must carry the global forward, got %v", g[0])
	}
}

func TestShardedClippedAggregatesAcrossShards(t *testing.T) {
	sh, err := NewSharded(3, func() Aggregator {
		return &NormClip{Inner: &Bundle{}, Bound: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		sh.Add(Update{ClientID: fmt.Sprintf("c%d", i), Params: []float32{5}, Samples: 1})
	}
	if got := sh.Clipped(); got != 6 {
		t.Fatalf("Clipped = %d, want 6 across shards", got)
	}
	if name := sh.Name(); name != "sharded:3:clip:1:bundle" {
		t.Fatalf("Name = %q", name)
	}
}

type notMergeable struct{}

func (notMergeable) Add(Update)       {}
func (notMergeable) Len() int         { return 0 }
func (notMergeable) Commit([]float32) {}
func (notMergeable) Reset()           {}

func TestNewShardedRejects(t *testing.T) {
	bundle := func() Aggregator { return &Bundle{} }
	if _, err := NewSharded(0, bundle); err == nil {
		t.Fatal("accepted zero shards")
	}
	if _, err := NewSharded(2, nil); err == nil {
		t.Fatal("accepted a nil factory")
	}
	if _, err := NewSharded(2, func() Aggregator { return &notMergeable{} }); err == nil {
		t.Fatal("accepted a non-mergeable inner aggregator")
	}
	shared := &Bundle{}
	if _, err := NewSharded(2, func() Aggregator { return shared }); err == nil {
		t.Fatal("accepted a factory that reuses one instance")
	}
	// The tree does not nest: a sharded inner is not Mergeable.
	if _, err := NewSharded(2, func() Aggregator {
		inner, _ := NewSharded(2, bundle)
		return inner
	}); err == nil {
		t.Fatal("accepted a nested sharded aggregator")
	}
}

func TestMergeFromRejectsMismatch(t *testing.T) {
	cases := []struct {
		dst Mergeable
		src Aggregator
	}{
		{&FedAvg{}, &Bundle{}},
		{&Bundle{}, &Median{}},
		{&Median{}, &TrimmedMean{}},
		{&TrimmedMean{Frac: 0.2}, &TrimmedMean{Frac: 0.3}},
		{&NormClip{Inner: &Bundle{}, Bound: 1}, &NormClip{Inner: &Bundle{}, Bound: 2}},
	}
	for _, c := range cases {
		if err := c.dst.MergeFrom(c.src); err == nil {
			t.Errorf("%T.MergeFrom(%T) accepted a mismatch", c.dst, c.src)
		}
	}
	// Length mismatches are errors too, not silent corruption.
	a, b := &FedAvg{}, &FedAvg{}
	a.Add(Update{Params: []float32{1, 2}, Samples: 1})
	b.Add(Update{Params: []float32{1, 2, 3}, Samples: 1})
	if err := a.MergeFrom(b); err == nil {
		t.Fatal("FedAvg merged mismatched lengths")
	}
}
