package fl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fhdnn/internal/dataset"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
)

// goldenSetup is a deliberately hard little problem (overlapping classes,
// real-valued hypervectors, non-IID shards) so that every round refines:
// the runs below mispredict and move prototypes hundreds of times.
func goldenSetup() *HDTrainer {
	return goldenTrainer(5, 60, 512, Config{NumClients: 6, ClientFraction: 0.5, LocalEpochs: 2, BatchSize: 10, Rounds: 8})
}

// goldenTrainer builds goldenSetup's problem with the given class count,
// training examples per class (a third as many test examples), hypervector
// width and federation; it sets cfg's Seed and Parallel.
func goldenTrainer(classes, perClass, d int, cfg Config) *HDTrainer {
	const seed = 77
	rng := rand.New(rand.NewSource(seed))
	gen := func(perClass int, sampleSeed int64) *dataset.Dataset {
		return dataset.GenerateVectors(dataset.VectorConfig{
			Name: "golden", Classes: classes, Features: 16, PerClass: perClass,
			ClassStd: 1, SampleStd: 1.6, Seed: sampleSeed})
	}
	train, test := gen(perClass, seed), gen(perClass/3, seed)
	enc := hdc.NewEncoder(rng, d, 16)
	enc.Binarize = false
	cfg.Seed, cfg.Parallel = seed, 2
	return &HDTrainer{
		Cfg:        cfg,
		Encoded:    enc.EncodeBatch(train.X),
		Labels:     train.Labels,
		TestEnc:    enc.EncodeBatch(test.X),
		TestLabels: test.Labels,
		NumClasses: classes,
		Part:       dataset.PartitionDirichlet(train.Labels, cfg.NumClients, 0.5, rng),
	}
}

// modelSum is FNV-1a over the little-endian float32 bits of the model.
func modelSum(m *hdc.Model) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range m.Flat() {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// The values below were recorded on the commit before the one-pass
// similarity kernel and the row-indexed client batches (per-class Cosine
// loop, gather-then-refine). The kernel's contract is that they never move.
// Every golden in this file was re-recorded once when Phi became sparse
// ternary: goldenTrainer's hypervectors and Dirichlet shards changed (the
// encoder draws a different number of values from the shared generator),
// while the trainer code under test did not.
func TestHDTrainerGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		adaptive bool
		sum      uint64
		acc      []float64
	}{
		{"fixed", false, 0x7f96a44b4cf170d6, []float64{0.83, 0.84, 0.82, 0.81, 0.82, 0.8, 0.77, 0.78}},
		{"adaptive", true, 0x8c02e7d7325a12e2, []float64{0.84, 0.84, 0.84, 0.83, 0.83, 0.83, 0.83, 0.81}},
	} {
		tr := goldenSetup()
		if tc.adaptive {
			tr.AdaptiveLR = 0.5
		}
		hist, model := tr.Run()
		if got := modelSum(model); got != tc.sum || !reflect.DeepEqual(hist.Accuracies(), tc.acc) {
			t.Errorf("%s: final global %#x, accuracies %#v; recorded %#x, %#v",
				tc.name, got, hist.Accuracies(), tc.sum, tc.acc)
		}
	}
}

// The paper's class count: K=10 fills every class lane of one sweep, and
// each of the ten clients holds a few dozen rows, enough for whole row
// blocks, a short tail and speculative work that a move discards. The
// values were recorded on the commit before the row-blocked similarity
// kernel (one hypervector per sweep).
func TestHDTrainerGoldenTenClasses(t *testing.T) {
	for _, tc := range []struct {
		name string
		lr   float32
		sum  uint64
		acc  []float64
	}{
		{"fixed", 0, 0xc9e731a51bb3649, []float64{0.6916666666666667, 0.725, 0.6916666666666667, 0.7}},
		{"adaptive", 0.5, 0x948c8a9c9d5bbf8d, []float64{0.6916666666666667, 0.6833333333333333, 0.6916666666666667, 0.6833333333333333}},
	} {
		tr := goldenTrainer(10, 36, 256, Config{NumClients: 10, ClientFraction: 0.5, LocalEpochs: 2, BatchSize: 10, Rounds: 4})
		tr.AdaptiveLR = tc.lr
		hist, model := tr.Run()
		if got := modelSum(model); got != tc.sum || !reflect.DeepEqual(hist.Accuracies(), tc.acc) {
			t.Errorf("%s: final global %#x, accuracies %#v; recorded %#x, %#v",
				tc.name, got, hist.Accuracies(), tc.sum, tc.acc)
		}
	}
}

// Replica safety: HDTrainer recycles its client replicas between rounds,
// and Median retains every row it is given until Reset, so a replica handed
// out again while the aggregator still held it would move these sums. The
// tamper hook scales each update in place on the client's own replica. The
// values were recorded before replicas were recycled (on the last commit
// that still simulated whole-update dropout, with it off), and hold at
// every worker count.
func TestHDTrainerReplicaGolden(t *testing.T) {
	scale := func(_, id int, params, _ []float32) {
		f := float32(1 + id%3)
		for i := range params {
			params[i] *= f
		}
	}
	for _, tc := range []struct {
		name   string
		median bool
		tamper bool
		sum    uint64
		acc    []float64
	}{
		{"median", true, false, 0x1ea84c1ed9da9b04, []float64{0.66, 0.8, 0.79, 0.8, 0.77, 0.73, 0.74, 0.72}},
		{"tamper", false, true, 0x8dfc317ebf5c4c85, []float64{0.83, 0.81, 0.82, 0.83, 0.82, 0.83, 0.83, 0.83}},
	} {
		for _, workers := range []int{1, 3} {
			tr := goldenSetup()
			tr.Cfg.Parallel = workers
			if tc.median {
				tr.Agg = &fedcore.Median{}
			}
			if tc.tamper {
				tr.TamperUpdate = scale
			}
			hist, model := tr.Run()
			if got := modelSum(model); got != tc.sum || !reflect.DeepEqual(hist.Accuracies(), tc.acc) {
				t.Errorf("%s/parallel=%d: final global %#x, accuracies %#v; recorded %#x, %#v",
					tc.name, workers, got, hist.Accuracies(), tc.sum, tc.acc)
			}
		}
	}
}

func TestAsyncHDTrainerGolden(t *testing.T) {
	base := goldenSetup()
	tr := &AsyncHDTrainer{
		Encoded: base.Encoded, Labels: base.Labels,
		TestEnc: base.TestEnc, TestLabels: base.TestLabels,
		NumClasses: base.NumClasses, Part: base.Part,
		Delay:   []float64{10, 12, 15, 11, 13, 29},
		Horizon: 100, LocalEpochs: 2, StalenessAlpha: 0.5, EvalEvery: 10,
	}
	res := tr.Run()
	var acc []float64
	for _, p := range res.Trace {
		acc = append(acc, p.Accuracy)
	}
	const wantSum, wantMerges = uint64(0xbe02fad26d3fbd2d), 43
	wantAcc := []float64{0.2, 0.84, 0.85, 0.86, 0.83, 0.83, 0.83, 0.84, 0.83, 0.81}
	if got := modelSum(res.Model); got != wantSum || res.Merges != wantMerges || !reflect.DeepEqual(acc, wantAcc) {
		t.Errorf("final global %#x after %d merges, accuracies %#v; recorded %#x after %d, %#v",
			got, res.Merges, acc, wantSum, wantMerges, wantAcc)
	}
}
