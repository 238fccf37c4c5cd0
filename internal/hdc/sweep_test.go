package hdc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

// namedKernel is one row-block kernel of this build. skip says why this
// host cannot run it ("" when it can).
type namedKernel struct {
	name string
	rowKernel
	skip string
}

// rowKernels lists every row-block kernel of this build, the portable one
// last.
func rowKernels() []namedKernel {
	return append(archKernels[:len(archKernels):len(archKernels)], namedKernel{"portable", portableKernel, ""})
}

// eachKernel runs f once per row-block kernel this host runs, with refine
// and PredictBatch dispatching to it, so every block width is driven end
// to end whatever the host's widest kernel is.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	defer func(k rowKernel) { sweeper = k }(sweeper)
	for _, k := range rowKernels() {
		if k.skip != "" {
			t.Logf("%s: skipped: %s", k.name, k.skip)
			continue
		}
		sweeper = k.rowKernel
		t.Run(k.name, f)
	}
}

// TestRowKernelsMatchPortable runs every row-block kernel against
// sweepRowsGo, pass by pass, over kernelClasses and widths from one
// element to the paper's 10 000, for bipolar and real-valued rows picked
// out of order from a larger array. A kernel the host cannot run is
// skipped with the reason.
func TestRowKernelsMatchPortable(t *testing.T) {
	for _, w := range rowKernels() {
		t.Run(w.name, func(t *testing.T) {
			if w.skip != "" {
				t.Skip(w.skip)
			}
			for _, k := range kernelClasses {
				for _, d := range []int{1, 2, 7, 64, 10000} {
					for _, bipolar := range []bool{true, false} {
						t.Run(fmt.Sprintf("K%d_D%d_bipolar=%v", k, d, bipolar), func(t *testing.T) {
							checkRowKernel(t, w, k, d, bipolar)
						})
					}
				}
			}
		})
	}
}

func checkRowKernel(t *testing.T, w namedKernel, k, d int, bipolar bool) {
	const n = 11
	rng := rand.New(rand.NewSource(int64(100*k + d)))
	m, enc, _ := kernelFixture(int64(k*d), k, d, n, false)
	if bipolar {
		for s := 0; s < n; s++ {
			copy(enc.Data()[s*d:(s+1)*d], RandomBipolar(rng, d))
		}
	}
	ln := m.lanes()
	defer putLanes(ln)
	kp := ln.kp
	var offs [blockRows]int
	for j, r := range rng.Perm(n)[:blockRows] {
		offs[j] = r * d
	}
	got, want := make([]float64, kp*blockRows), make([]float64, kp*blockRows)
	var ghh, whh [blockRows]float64
	for lo := 0; lo < kp; lo += sweepClasses {
		cw := min(kp-lo, sweepClasses)
		w.sweep(got[lo*blockRows:], &ghh, ln.cs[lo:], enc.Data(), &offs, d, kp, cw)
		sweepRowsGo(want[lo*blockRows:], &whh, ln.cs[lo:], enc.Data(), &offs, blockRows, d, kp, cw)
	}
	for j := range int(w.rowKernel) {
		if !sameFloat(ghh[j], whh[j]) {
			t.Fatalf("row %d: h·h = %v, portable %v", j, ghh[j], whh[j])
		}
		for c := range kp {
			if g, wv := got[c*blockRows+j], want[c*blockRows+j]; !sameFloat(g, wv) {
				t.Fatalf("row %d class %d: dot = %v (%#x), portable %v (%#x)",
					j, c, g, math.Float64bits(g), wv, math.Float64bits(wv))
			}
		}
	}
}

// TestRefineBlocksUnderHeavyMoves drives the blocked refinement where it
// discards the most speculative work, with every row-block kernel the
// host runs: random labels on a random model, so most steps move, example
// counts that leave a short last block, and row subsets in shuffled order
// with a repeat. Both rules must match the row-at-a-time oracles step for
// step. K=26 (the ISOLET runs) is past what a block's fixed scratch holds.
func TestRefineBlocksUnderHeavyMoves(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, k := range []int{3, 10, 11, 20, 26} {
			for _, n := range []int{1, 7, 9, 29, 61} {
				for _, lr := range []float32{0, 0.37} {
					t.Run(fmt.Sprintf("K%d_n%d_lr%v", k, n, lr), func(t *testing.T) {
						checkHeavyMoves(t, k, n, lr)
					})
				}
			}
		}
	})
}

func checkHeavyMoves(t *testing.T, k, n int, lr float32) {
	m, enc, labels := kernelFixture(int64(7*k+n), k, 48, n, false)
	rng := rand.New(rand.NewSource(int64(n)))
	subset := rng.Perm(n)[:(3*n+3)/4]
	subset = append(subset, subset[0])
	for _, rows := range [][]int{nil, subset} {
		batch, y := enc, labels
		if rows != nil {
			batch, y = gatherRows(enc, labels, rows)
		}
		got, want := m.Clone(), m.Clone()
		moves := 0
		for epoch := 0; epoch < 3; epoch++ {
			g := refineEpoch(got, enc, labels, rows, lr)
			var w int
			if lr == 0 {
				w = oracleRefineEpoch(want, batch, y)
			} else {
				w = oracleRefineEpochAdaptive(want, batch, y, lr)
			}
			if g != w {
				t.Fatalf("rows %v epoch %d: wrong = %d, oracle %d", rows != nil, epoch, g, w)
			}
			sameModel(t, fmt.Sprintf("rows %v epoch %d", rows != nil, epoch), got, want)
			moves += g
		}
		if n > 1 && 2*moves < len(y) {
			t.Fatalf("rows %v: %d moves in 3 epochs over %d examples; the fixture should move on most steps", rows != nil, moves, len(y))
		}
	}
}

// TestPredictBatchBlocks checks PredictBatch against the per-row oracle,
// with every row-block kernel the host runs, for batch sizes around the
// block sizes and worker splits that cut blocks short, with K=26 past a
// block's fixed scratch.
func TestPredictBatchBlocks(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	eachKernel(t, func(t *testing.T) {
		for _, k := range []int{10, 13, 26} {
			for _, n := range []int{0, 1, 3, 7, 8, 9, 1001} {
				m, enc, _ := kernelFixture(int64(k+n), k, 33, n, false)
				for _, workers := range []int{1, 2, 3} {
					tensor.SetWorkers(workers)
					preds := m.PredictBatch(enc)
					if len(preds) != n {
						t.Fatalf("K=%d n=%d workers=%d: %d predictions", k, n, workers, len(preds))
					}
					for s, p := range preds {
						if wc, _ := oraclePredict(m, enc.Data()[s*m.D:(s+1)*m.D]); p != wc {
							t.Fatalf("K=%d n=%d workers=%d row %d: PredictBatch = %d, oracle %d", k, n, workers, s, p, wc)
						}
					}
				}
			}
		}
	})
}
