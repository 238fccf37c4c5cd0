package hdc

import (
	"fmt"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

// The three client loops LocalUpdate replaced, kept as oracles. Each
// returns the last epoch's mispredictions (0 when no epoch ran) and how
// many epochs it ran. Their per-epoch steps are refineEpoch, one epoch
// from fresh class lanes, which TestRefineMatchesOracle pins to the
// naive refinement oracles.

// refineEpoch is one refinement epoch over the listed rows of enc (nil
// means every row): lr 0 is the paper's fixed rule, anything else the
// similarity-weighted rule at rate lr.
func refineEpoch(m *Model, enc *tensor.Tensor, labels, rows []int, lr float32) int {
	bundled := true
	return m.LocalUpdate(enc, labels, rows, &bundled, 1, lr)
}

// hdTrainerClientOracle is fl.HDTrainer's client step: the listed rows,
// either step rule (lr 0 is the fixed rule).
func hdTrainerClientOracle(m *Model, enc *tensor.Tensor, labels, rows []int, bundled *bool, epochs int, lr float32) (wrong, ran int) {
	if !*bundled {
		m.OneShotTrainRows(enc, labels, rows)
		*bundled = true
	}
	for e := 0; e < epochs; e++ {
		ran++
		if wrong = refineEpoch(m, enc, labels, rows, lr); wrong == 0 {
			break
		}
	}
	return wrong, ran
}

// asyncClientOracle is fl.AsyncHDTrainer's client step: the listed rows,
// the fixed rule.
func asyncClientOracle(m *Model, enc *tensor.Tensor, labels, rows []int, bundled *bool, epochs int) (wrong, ran int) {
	if !*bundled {
		m.OneShotTrainRows(enc, labels, rows)
		*bundled = true
	}
	for e := 0; e < epochs; e++ {
		ran++
		if wrong = refineEpoch(m, enc, labels, rows, 0); wrong == 0 {
			break
		}
	}
	return wrong, ran
}

// localTrainerOracle is flnet.LocalTrainer's client step: every row, the
// fixed rule.
func localTrainerOracle(m *Model, enc *tensor.Tensor, labels []int, bundled *bool, epochs int) (wrong, ran int) {
	if !*bundled {
		m.OneShotTrain(enc, labels)
		*bundled = true
	}
	for e := 0; e < epochs; e++ {
		ran++
		if wrong = m.RefineEpoch(enc, labels); wrong == 0 {
			break
		}
	}
	return wrong, ran
}

// localUpdateFixture draws n real-valued hypervectors around k class
// centres at the given noise: low noise converges within a few epochs,
// high noise never does.
func localUpdateFixture(seed int64, k, d, n int, noise float64) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	centres := make([]float32, k*d)
	for i := range centres {
		centres[i] = float32(rng.NormFloat64())
	}
	enc := tensor.New(n, d)
	labels := make([]int, n)
	for s := range labels {
		y := rng.Intn(k)
		labels[s] = y
		for i, c := range centres[y*d : (y+1)*d] {
			enc.Data()[s*d+i] = c + float32(rng.NormFloat64()*noise)
		}
	}
	return enc, labels
}

// LocalUpdate leaves the bits, the returned count and the bundled flag of
// each loop it replaced, over every row and a subset, with the one-shot
// bundle due or already done, both step rules, and epoch budgets that run
// out and that stop early.
func TestLocalUpdateMatchesClientLoops(t *testing.T) {
	var stoppedEarly, ranOut bool
	for _, k := range []int{3, 10} {
		for _, noise := range []float64{0.9, 4} {
			enc, labels := localUpdateFixture(int64(31*k)+int64(noise*10), k, 96, 60, noise)
			subset := []int{41, 3, 17, 17, 58, 0, 22, 9, 35, 50, 12, 29, 44, 7}
			for _, epochs := range []int{0, 1, 3, 12} {
				for _, bundled := range []bool{false, true} {
					// A model that already holds a bundle (of other
					// rows) when the one-shot step is done.
					start := NewModel(k, enc.Dim(1))
					if bundled {
						start.OneShotTrainRows(enc, labels, []int{1, 2, 4, 5, 6})
					}
					name := fmt.Sprintf("K%d_noise%g_E%d_bundled=%v", k, noise, epochs, bundled)
					check := func(what string, wantWrong, ran int, want *Model, wantFlag bool, rows []int, lr float32) {
						t.Helper()
						got, flag := start.Clone(), bundled
						gotWrong := got.LocalUpdate(enc, labels, rows, &flag, epochs, lr)
						sameModel(t, name+"/"+what, got, want)
						if gotWrong != wantWrong || flag != wantFlag {
							t.Fatalf("%s/%s: returned %d with bundled=%v, oracle %d with %v", name, what, gotWrong, flag, wantWrong, wantFlag)
						}
						if ran < epochs {
							stoppedEarly = stoppedEarly || ran > 1
						} else if epochs > 0 && wantWrong > 0 {
							ranOut = true
						}
					}
					for _, rows := range [][]int{nil, subset} {
						rowsName := "all"
						if rows != nil {
							rowsName = "subset"
						}
						for _, lr := range []float32{0, 1, 0.35} {
							want, flag := start.Clone(), bundled
							wrong, ran := hdTrainerClientOracle(want, enc, labels, rows, &flag, epochs, lr)
							check(fmt.Sprintf("hdtrainer_%s_lr%g", rowsName, lr), wrong, ran, want, flag, rows, lr)
						}
						want, flag := start.Clone(), bundled
						wrong, ran := asyncClientOracle(want, enc, labels, rows, &flag, epochs)
						check("async_"+rowsName, wrong, ran, want, flag, rows, 0)
					}
					want, flag := start.Clone(), bundled
					wrong, ran := localTrainerOracle(want, enc, labels, &flag, epochs)
					check("localtrainer", wrong, ran, want, flag, nil, 0)
				}
			}
		}
	}
	if !stoppedEarly || !ranOut {
		t.Fatalf("fixtures must cover a refinement that converges before E (%v) and one that runs out of epochs (%v)", stoppedEarly, ranOut)
	}
}
