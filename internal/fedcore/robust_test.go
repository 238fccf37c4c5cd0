package fedcore

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

func TestMedianCommit(t *testing.T) {
	a := &Median{}
	a.Add(Update{Params: []float32{1, 10, -5}})
	a.Add(Update{Params: []float32{2, 20, 0}})
	a.Add(Update{Params: []float32{100, 30, 5}}) // one outlier per coordinate
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}
	global := []float32{0, 0, 0}
	a.Commit(global)
	if global[0] != 2 || global[1] != 20 || global[2] != 0 {
		t.Fatalf("odd-n median commit = %v", global)
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatal("Reset must clear updates")
	}
	global = []float32{7, 7, 7}
	a.Commit(global)
	if global[0] != 7 || global[1] != 7 || global[2] != 7 {
		t.Fatal("empty commit must carry the global forward")
	}

	// Even n averages the two middle values.
	a.Add(Update{Params: []float32{1}})
	a.Add(Update{Params: []float32{3}})
	a.Add(Update{Params: []float32{5}})
	a.Add(Update{Params: []float32{1000}})
	g := []float32{0}
	a.Commit(g)
	if g[0] != 4 {
		t.Fatalf("even-n median = %v, want 4", g[0])
	}
}

func TestTrimmedMeanTrimsOutliers(t *testing.T) {
	a := &TrimmedMean{Frac: 0.25} // n=4 -> ceil(1) trimmed per end
	a.Add(Update{Params: []float32{-1000}})
	a.Add(Update{Params: []float32{2}})
	a.Add(Update{Params: []float32{4}})
	a.Add(Update{Params: []float32{1000}})
	g := []float32{0}
	a.Commit(g)
	if g[0] != 3 {
		t.Fatalf("trimmed mean = %v, want 3 (outliers at both ends discarded)", g[0])
	}
}

func TestTrimmedMeanTrimCount(t *testing.T) {
	cases := []struct {
		frac string
		a    *TrimmedMean
		n    int
		want int
	}{
		{"0", &TrimmedMean{}, 10, 0},
		{"0.2", &TrimmedMean{Frac: 0.2}, 10, 2},
		{"0.25", &TrimmedMean{Frac: 0.25}, 10, 3}, // ceil(2.5)
		{"0.25", &TrimmedMean{Frac: 0.25}, 8, 2},
		{"0.49", &TrimmedMean{Frac: 0.49}, 4, 1}, // 2*ceil(1.96)=4 >= 4, clamped to (n-1)/2
		{"0.4", &TrimmedMean{Frac: 0.4}, 3, 1},
		{"0.4", &TrimmedMean{Frac: 0.4}, 1, 0}, // a single update always survives
	}
	for _, c := range cases {
		if got := c.a.Trim(c.n); got != c.want {
			t.Errorf("TrimmedMean(%s).Trim(%d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}

// randomUpdates builds n updates of dimension d. When integer is set the
// params are small whole numbers, so float64 accumulation is exact and
// algebraic identities hold bitwise.
func randomUpdates(rng *rand.Rand, n, d int, integer bool) []Update {
	ups := make([]Update, n)
	for i := range ups {
		p := make([]float32, d)
		for j := range p {
			if integer {
				p[j] = float32(rng.Intn(65) - 32)
			} else {
				p[j] = float32(rng.NormFloat64())
			}
		}
		ups[i] = Update{Params: p, Samples: 1, Client: i}
	}
	return ups
}

func commitAll(a Aggregator, ups []Update, d int) []float32 {
	g := make([]float32, d)
	for _, u := range ups {
		a.Add(u)
	}
	a.Commit(g)
	a.Reset()
	return g
}

// TrimmedMean with Frac 0 is the plain mean; with unit sample weights and
// a power-of-two update count (so 1/n is exact) it must be bit-identical
// to FedAvg on integer-valued updates.
func TestTrimmedMeanZeroEqualsFedAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, d = 8, 257
	ups := randomUpdates(rng, n, d, true)
	gAvg := commitAll(&FedAvg{}, ups, d)
	gTrim := commitAll(&TrimmedMean{}, ups, d)
	for j := range gAvg {
		if gAvg[j] != gTrim[j] {
			t.Fatalf("coordinate %d: FedAvg %v != TrimmedMean(0) %v", j, gAvg[j], gTrim[j])
		}
	}

	// With arbitrary float updates and a non-power-of-two count the two
	// differ only by float64 summation order: equal within one part in 1e6.
	ups = randomUpdates(rng, 7, d, false)
	gAvg = commitAll(&FedAvg{}, ups, d)
	gTrim = commitAll(&TrimmedMean{}, ups, d)
	for j := range gAvg {
		if diff := math.Abs(float64(gAvg[j] - gTrim[j])); diff > 1e-6*(1+math.Abs(float64(gAvg[j]))) {
			t.Fatalf("coordinate %d: FedAvg %v vs TrimmedMean(0) %v", j, gAvg[j], gTrim[j])
		}
	}
}

// Median, TrimmedMean, and NormClip over either must commit bit-identical
// global vectors for every Add order.
func TestRobustPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, d = 9, 123
	ups := randomUpdates(rng, n, d, false)
	builders := map[string]func() Aggregator{
		"median":       func() Aggregator { return &Median{} },
		"trimmed:0.25": func() Aggregator { return &TrimmedMean{Frac: 0.25} },
		"clip:2:median": func() Aggregator {
			return &NormClip{Inner: &Median{}, Bound: 2}
		},
		"clip:2:trimmed:0.2": func() Aggregator {
			return &NormClip{Inner: &TrimmedMean{Frac: 0.2}, Bound: 2}
		},
	}
	for name, build := range builders {
		want := commitAll(build(), ups, d)
		for trial := 0; trial < 5; trial++ {
			shuffled := make([]Update, n)
			copy(shuffled, ups)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got := commitAll(build(), shuffled, d)
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("%s: coordinate %d differs across Add orders: %v vs %v",
						name, j, want[j], got[j])
				}
			}
		}
	}
}

func TestNormClipIdentityUnderBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, d = 6, 64
	ups := randomUpdates(rng, n, d, false) // norms ~ sqrt(64) = 8
	snapshot := make([][]float32, n)
	for i, u := range ups {
		snapshot[i] = append([]float32(nil), u.Params...)
	}

	plain := commitAll(&Median{}, ups, d)
	clip := &NormClip{Inner: &Median{}, Bound: 1e6}
	clipped := commitAll(clip, ups, d)
	for j := range plain {
		if plain[j] != clipped[j] {
			t.Fatalf("NormClip under the bound must be the identity; coordinate %d: %v vs %v",
				j, plain[j], clipped[j])
		}
	}
	if clip.Clipped() != 0 {
		t.Fatalf("Clipped = %d with every norm under the bound", clip.Clipped())
	}

	// Over the bound: every update is rescaled to exactly Bound, the
	// caller's slices are never mutated, and the clip counter advances.
	tight := &NormClip{Inner: &FedAvg{}, Bound: 1}
	g := commitAll(tight, ups, d)
	if tight.Clipped() != n {
		t.Fatalf("Clipped = %d, want %d", tight.Clipped(), n)
	}
	var norm float64
	for _, v := range g {
		norm += float64(float64(v) * float64(v))
	}
	if norm = math.Sqrt(norm); norm > 1+1e-6 {
		t.Fatalf("committed norm %v exceeds the clip bound", norm)
	}
	for i, u := range ups {
		for j := range u.Params {
			if u.Params[j] != snapshot[i][j] {
				t.Fatalf("NormClip mutated the caller's update %d at %d", i, j)
			}
		}
	}
}

// The engine determinism contract extends to the robust aggregators: the
// committed global vector is bit-identical for every worker count, both
// the Engine's own pool and the shared tensor pool.
func TestRobustBitIdenticalAcrossWorkers(t *testing.T) {
	builders := map[string]func() Aggregator{
		"median":  func() Aggregator { return &Median{} },
		"trimmed": func() Aggregator { return &TrimmedMean{Frac: 0.25} },
		"clip":    func() Aggregator { return &NormClip{Inner: &Median{}, Bound: 3} },
	}
	defer tensor.SetWorkers(tensor.Workers())
	for name, build := range builders {
		run := func(workers int) []float32 {
			tensor.SetWorkers(workers)
			global := make([]float32, 16)
			e := &Engine{
				Clients: 12, Fraction: 0.75, Rounds: 5, Seed: 99,
				Parallel:  workers,
				SampleRNG: ClientRNG(99, 0, -1),
				Agg:       build(),
				Global:    global,
				Train: func(_, round, id int, rng *rand.Rand) (Update, bool) {
					u := Update{Params: make([]float32, 16), Samples: 1}
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
					t.Fatalf("%s: global[%d] differs between 1 and %d workers: %v vs %v",
						name, j, workers, want[j], got[j])
				}
			}
		}
	}
}

func TestRobustRejectsMismatchedLength(t *testing.T) {
	for _, a := range []Aggregator{&Median{}, &TrimmedMean{Frac: 0.1}} {
		a.Add(Update{Params: []float32{1, 2, 3}})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T accepted a mismatched update length", a)
				}
			}()
			a.Add(Update{Params: []float32{1, 2}})
		}()
	}
}

func TestParseAggregator(t *testing.T) {
	good := map[string]string{
		"bundle":               "bundle",
		"fedavg":               "fedavg",
		"median":               "median",
		"trimmed":              "trimmed:0.2",
		"trimmed:0.25":         "trimmed:0.25",
		"clip:100":             "clip:100:bundle",
		"clip:5:median":        "clip:5:median",
		"clip:2.5:trimmed:0.3": "clip:2.5:trimmed:0.3",
		// The clip decorator nests: outer clip over an inner clip over a
		// robust core.
		"clip:8:clip:2:median": "clip:8:clip:2:median",
	}
	for spec, want := range good {
		a, err := ParseAggregator(spec)
		if err != nil {
			t.Fatalf("ParseAggregator(%q): %v", spec, err)
		}
		if got := AggregatorName(a); got != want {
			t.Fatalf("AggregatorName(ParseAggregator(%q)) = %q, want %q", spec, got, want)
		}
	}
	// A sharded tree is built with NewSharded, not parsed; its name still
	// carries the inner spec in canonical form.
	for _, tc := range []struct {
		n           int
		inner, want string
	}{
		{4, "bundle", "sharded:4:bundle"},
		{1, "fedavg", "sharded:1:fedavg"},
		{8, "clip:3:trimmed:0.25", "sharded:8:clip:3:trimmed:0.25"},
	} {
		sh, err := NewSharded(tc.n, func() Aggregator {
			a, err := ParseAggregator(tc.inner)
			if err != nil {
				t.Fatal(err)
			}
			return a
		})
		if err != nil {
			t.Fatalf("NewSharded(%d, %q): %v", tc.n, tc.inner, err)
		}
		if got := AggregatorName(sh); got != tc.want {
			t.Fatalf("AggregatorName(NewSharded(%d, %q)) = %q, want %q", tc.n, tc.inner, got, tc.want)
		}
	}
}

// Every malformed spec must return a typed *PolicyError — never panic,
// never a silent fallback. The table walks the edge cases: empty spec,
// out-of-range or non-finite trim fractions, zero/negative/non-finite
// clip bounds, malformed nesting, and the retired sharded grammar.
func TestParseAggregatorRejectsTyped(t *testing.T) {
	bad := []string{
		"",     // empty spec: callers own defaulting now
		"krum", // unknown policy
		"trimmed:0.5", "trimmed:0.75", "trimmed:-1", "trimmed:x",
		"trimmed:NaN", "trimmed:+Inf",
		"clip:0", "clip:-3:median", "clip:x", "clip:NaN", "clip:+Inf",
		"clip:10:krum",          // bad inner spec
		"clip:2:clip:x:median",  // nested clip with a bad inner bound
		"clip:2:clip:-1:median", // nested clip with a negative inner bound
		"sharded:4:bundle",      // the tree is built with NewSharded, never parsed
	}
	for _, spec := range bad {
		a, err := ParseAggregator(spec)
		if err == nil {
			t.Fatalf("ParseAggregator(%q) accepted a bad spec: %v", spec, AggregatorName(a))
		}
		var pe *PolicyError
		if !errors.As(err, &pe) {
			t.Fatalf("ParseAggregator(%q) returned %T (%v), want *PolicyError", spec, err, err)
		}
		if pe.Reason == "" {
			t.Fatalf("ParseAggregator(%q): PolicyError with empty reason", spec)
		}
	}
}
