package fl

import (
	"math"
	"testing"
)

// asyncSetup builds an AsyncHDTrainer over the same data as hdSetup.
func asyncSetup(t *testing.T, numClients int, seed int64, delays []float64) *AsyncHDTrainer {
	t.Helper()
	base := hdSetup(t, numClients, seed)
	return &AsyncHDTrainer{
		Encoded:     base.Encoded,
		Labels:      base.Labels,
		TestEnc:     base.TestEnc,
		TestLabels:  base.TestLabels,
		NumClasses:  base.NumClasses,
		Part:        base.Part,
		Delay:       delays,
		Horizon:     100,
		LocalEpochs: 2,
		EvalEvery:   10,
	}
}

func TestAsyncLearns(t *testing.T) {
	delays := []float64{10, 12, 15, 11, 13}
	tr := asyncSetup(t, 5, 50, delays)
	res := tr.Run()
	if res.Merges == 0 {
		t.Fatal("no merges happened")
	}
	if res.FinalAccuracy() < 0.8 {
		t.Fatalf("async accuracy %v too low", res.FinalAccuracy())
	}
	if len(res.Trace) == 0 || res.Trace[len(res.Trace)-1].Time > tr.Horizon {
		t.Fatal("trace bounds wrong")
	}
}

func TestAsyncDeterministic(t *testing.T) {
	delays := []float64{10, 12, 15, 11, 13}
	a := asyncSetup(t, 5, 51, delays).Run()
	b := asyncSetup(t, 5, 51, delays).Run()
	if a.Merges != b.Merges {
		t.Fatal("merge counts differ")
	}
	for i := range a.Trace {
		if a.Trace[i].Accuracy != b.Trace[i].Accuracy {
			t.Fatal("runs must be deterministic")
		}
	}
}

// The point of async: a straggler no longer gates everyone. With one
// client 20x slower, async reaches target accuracy long before the first
// synchronous full round could even close.
func TestAsyncOutrunsStraggler(t *testing.T) {
	delays := []float64{10, 10, 10, 10, 200} // client 4 is a deep straggler
	tr := asyncSetup(t, 5, 52, delays)
	tr.Horizon = 200
	tr.EvalEvery = 5
	res := tr.Run()
	tAt := res.TimeToAccuracy(0.75)
	if tAt < 0 {
		t.Fatalf("never reached 0.75 (final %v)", res.FinalAccuracy())
	}
	// synchronous: the first round with all 5 clients closes at t=200
	if tAt >= 200 {
		t.Fatalf("async reached target at t=%v, no better than synchronous", tAt)
	}
}

func TestAsyncStalenessDiscount(t *testing.T) {
	delays := []float64{10, 10, 10, 10, 97}
	plain := asyncSetup(t, 5, 53, delays)
	plain.StalenessAlpha = 0
	disc := asyncSetup(t, 5, 53, delays)
	disc.StalenessAlpha = 1
	a := plain.Run()
	b := disc.Run()
	// both must learn; the discounted run downweights the straggler's
	// very stale delta rather than rejecting it
	if a.FinalAccuracy() < 0.7 || b.FinalAccuracy() < 0.7 {
		t.Fatalf("accuracies %v / %v too low", a.FinalAccuracy(), b.FinalAccuracy())
	}
}

// The discount is 1/(1+staleness)^alpha, and alpha <= 0 switches it off.
func TestStalenessWeight(t *testing.T) {
	for _, c := range []struct {
		staleness int
		alpha     float64
		want      float64
	}{
		{0, 1, 1}, {1, 1, 0.5}, {3, 1, 0.25}, {3, 0.5, 0.5}, {100, 0, 1}, {100, -1, 1},
	} {
		if w := stalenessWeight(c.staleness, c.alpha); math.Abs(w-c.want) > 1e-12 {
			t.Errorf("stalenessWeight(%d, %v) = %v, want %v", c.staleness, c.alpha, w, c.want)
		}
	}
}

func TestAsyncValidation(t *testing.T) {
	tr := asyncSetup(t, 5, 54, []float64{1, 2, 3, 4, 5})
	tr.Delay = []float64{1}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for delay mismatch")
			}
		}()
		tr.Run()
	}()
	tr2 := asyncSetup(t, 5, 55, []float64{1, 2, 3, 4, 5})
	tr2.Horizon = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero horizon")
		}
	}()
	tr2.Run()
}

func TestAsyncTimeToAccuracyMiss(t *testing.T) {
	res := &AsyncResult{Trace: []AsyncPoint{{Time: 1, Accuracy: 0.2}}}
	if res.TimeToAccuracy(0.9) != -1 {
		t.Fatal("unreached target must return -1")
	}
	empty := &AsyncResult{}
	if empty.FinalAccuracy() != 0 {
		t.Fatal("empty trace accuracy must be 0")
	}
}
