package hdc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

// The oracle: the per-class Cosine loop and the refine bodies exactly as
// they stood before the one-pass similarity kernel. Everything the kernel
// serves must stay bit-identical to these.

func oraclePredict(m *Model, h []float32) (class int, sim float64) {
	best, bi := -2.0, 0
	for k := 0; k < m.K; k++ {
		s := Cosine(m.Class(k), h)
		if s > best {
			best, bi = s, k
		}
	}
	return bi, best
}

func oracleSimilarities(m *Model, h []float32) []float64 {
	out := make([]float64, m.K)
	for k := 0; k < m.K; k++ {
		out[k] = Cosine(m.Class(k), h)
	}
	return out
}

func oracleRefineEpoch(m *Model, encoded *tensor.Tensor, labels []int) int {
	n := encoded.Dim(0)
	if len(labels) != n {
		panic("hdc: RefineEpoch labels length mismatch")
	}
	wrong := 0
	for s := 0; s < n; s++ {
		h := encoded.Data()[s*m.D : (s+1)*m.D]
		pred, _ := oraclePredict(m, h)
		if pred != labels[s] {
			wrong++
			correct := m.Class(labels[s])
			bad := m.Class(pred)
			for i, v := range h {
				correct[i] += v
				bad[i] -= v
			}
		}
	}
	return wrong
}

func oracleRefineEpochAdaptive(m *Model, encoded *tensor.Tensor, labels []int, lr float32) int {
	n := encoded.Dim(0)
	if len(labels) != n {
		panic("hdc: RefineEpochAdaptive labels length mismatch")
	}
	wrong := 0
	for s := 0; s < n; s++ {
		h := encoded.Data()[s*m.D : (s+1)*m.D]
		sims := oracleSimilarities(m, h)
		pred, best := 0, sims[0]
		for k, sim := range sims {
			if sim > best {
				pred, best = k, sim
			}
		}
		y := labels[s]
		if pred == y {
			continue
		}
		wrong++
		up := lr * float32(1-sims[y])
		down := lr * float32(1-sims[pred])
		correct := m.Class(y)
		bad := m.Class(pred)
		for i, v := range h {
			correct[i] += float32(up * v)
			bad[i] -= float32(down * v)
		}
	}
	return wrong
}

func oracleAccuracy(m *Model, encoded *tensor.Tensor, labels []int) float64 {
	n := encoded.Dim(0)
	correct := 0
	for s := 0; s < n; s++ {
		pred, _ := oraclePredict(m, encoded.Data()[s*m.D:(s+1)*m.D])
		if pred == labels[s] {
			correct++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(correct) / float64(n)
}

// sameFloat reports bit equality; two NaNs compare equal whatever their
// payload, which no Go arithmetic pins.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameModel(t *testing.T, what string, got, want *Model) {
	t.Helper()
	for i, w := range want.Flat() {
		g := got.Flat()[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: prototype entry %d = %v (%#x), oracle %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// kernelFixture draws a real-valued (non-integer) model and n hypervectors
// with labels. hostile plants the edge cases: a zero prototype, a zero
// hypervector, and NaN / +Inf / -Inf entries in both.
func kernelFixture(seed int64, k, d, n int, hostile bool) (*Model, *tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(k, d)
	for i := range m.Flat() {
		m.Flat()[i] = float32(rng.NormFloat64() * 3.7)
	}
	enc := tensor.New(n, d)
	for i := range enc.Data() {
		enc.Data()[i] = float32(rng.NormFloat64())
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	if hostile {
		clear(m.Class(rng.Intn(k)))
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		if n > 0 {
			clear(enc.Data()[:d])
		}
		for s := 1; s < n; s += 3 {
			enc.Data()[s*d+rng.Intn(d)] = specials[(s/3)%len(specials)]
		}
		if k > 2 {
			m.Class(rng.Intn(k))[rng.Intn(d)] = specials[rng.Intn(len(specials))]
		}
	}
	return m, enc, labels
}

var (
	kernelClasses = []int{1, 2, 3, 4, 5, 7, 9, 10, 11, 17, 20}
	kernelDims    = []int{1, 3, 64, 10000}
)

// forEachKernelShape runs fn over K x D x {clean, hostile}; the d=10000
// rows keep n small so the suite stays quick. Between them the class
// counts run every lane-pair count of both class-lane kernels; K=11 puts
// one class past a sweep and K=20 is exactly two.
func forEachKernelShape(t *testing.T, fn func(t *testing.T, m *Model, enc *tensor.Tensor, labels []int)) {
	for _, k := range kernelClasses {
		for _, d := range kernelDims {
			for _, hostile := range []bool{false, true} {
				n := 24
				if d == 10000 {
					n = 7
				}
				name := fmt.Sprintf("K%d_D%d_hostile=%v", k, d, hostile)
				t.Run(name, func(t *testing.T) {
					m, enc, labels := kernelFixture(int64(1000*k+d), k, d, n, hostile)
					fn(t, m, enc, labels)
				})
			}
		}
	}
}

func TestKernelMatchesCosineOracle(t *testing.T) {
	forEachKernelShape(t, func(t *testing.T, m *Model, enc *tensor.Tensor, _ []int) {
		for s := 0; s < enc.Dim(0); s++ {
			h := enc.Data()[s*m.D : (s+1)*m.D]
			wc, ws := oraclePredict(m, h)
			gc, gs := m.Predict(h)
			if gc != wc || math.Float64bits(gs) != math.Float64bits(ws) {
				t.Fatalf("row %d: Predict = (%d, %v), oracle (%d, %v)", s, gc, gs, wc, ws)
			}
			want := oracleSimilarities(m, h)
			for k, g := range m.Similarities(h) {
				if !sameFloat(g, want[k]) {
					t.Fatalf("row %d: Similarities[%d] = %v (%#x), oracle %v (%#x)",
						s, k, g, math.Float64bits(g), want[k], math.Float64bits(want[k]))
				}
			}
		}
		preds := m.PredictBatch(enc)
		for s, p := range preds {
			if wc, _ := oraclePredict(m, enc.Data()[s*m.D:(s+1)*m.D]); p != wc {
				t.Fatalf("row %d: PredictBatch = %d, oracle %d", s, p, wc)
			}
		}
	})
}

// TestSimilarityKernelMatchesPortable pins the class-lane kernels against
// their portable twins, sweep by sweep: the lane copy and the prototype
// norms of laneFill, and every dot product and h·h of the row-block sweep
// this CPU dispatches to, against sweepRowsGo, block by block with a short
// last block. On architectures without assembly both sides are the twin.
func TestSimilarityKernelMatchesPortable(t *testing.T) {
	forEachKernelShape(t, func(t *testing.T, m *Model, enc *tensor.Tensor, _ []int) {
		ln := m.lanes()
		defer putLanes(ln)
		k, d, kp := m.K, m.D, ln.kp
		for lo := 0; lo+1 < k; lo += sweepClasses {
			pairs := min(k-lo, sweepClasses) / 2
			cs, sq := make([]float64, kp*d), make([]float64, 2*pairs)
			laneFillGo(sq, cs[lo:], m.Flat()[lo*d:], d, kp, pairs)
			for j := range sq {
				for i := 0; i < d; i++ {
					if g, w := ln.cs[i*kp+lo+j], cs[i*kp+lo+j]; !sameFloat(g, w) {
						t.Fatalf("class %d entry %d: lane %v, portable %v", lo+j, i, g, w)
					}
				}
				if g, w := ln.norms[lo+j], math.Sqrt(sq[j]); !sameFloat(g, w) {
					t.Fatalf("class %d: norm %v, portable %v", lo+j, g, w)
				}
			}
		}
		data, n := enc.Data(), enc.Dim(0)
		var b block
		for s := 0; s < n; s += int(sweeper) {
			cnt := m.fillBlock(&b, data, nil, s, n)
			ln.sweep(&b, data, d)
			got, _ := b.scratch(kp, k)
			want, whh := make([]float64, kp*blockRows), new([blockRows]float64)
			for lo := 0; lo < kp; lo += sweepClasses {
				sweepRowsGo(want[lo*blockRows:], whh, ln.cs[lo:], data, &b.offs, cnt, d, kp, min(kp-lo, sweepClasses))
			}
			for j := range cnt {
				if !sameFloat(b.hh[j], whh[j]) {
					t.Fatalf("row %d: h·h = %v, portable %v", s+j, b.hh[j], whh[j])
				}
				for c := range kp {
					if g, w := got[c*blockRows+j], want[c*blockRows+j]; !sameFloat(g, w) {
						t.Fatalf("row %d class %d: dot = %v (%#x), portable %v (%#x)",
							s+j, c, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	})
}

func TestKernelEdgeSemantics(t *testing.T) {
	m := NewModel(3, 4)
	h := []float32{1, -1, 1, -1}
	if c, s := m.Predict(h); c != 0 || s != 0 {
		t.Fatalf("all-zero model: Predict = (%d, %v), want (0, 0)", c, s)
	}
	copy(m.Class(1), h)
	if c, s := m.Predict(make([]float32, 4)); c != 0 || s != 0 {
		t.Fatalf("zero hypervector: Predict = (%d, %v), want (0, 0)", c, s)
	}
	// Class 0 scores NaN and must lose to the finite match in class 1.
	m.Class(0)[2] = float32(math.NaN())
	if c, s := m.Predict(h); c != 1 || s != 1 {
		t.Fatalf("NaN prototype: Predict = (%d, %v), want (1, 1)", c, s)
	}
	if sims := m.Similarities(h); !math.IsNaN(sims[0]) || sims[1] != 1 || sims[2] != 0 {
		t.Fatalf("Similarities = %v, want [NaN 1 0]", sims)
	}
}

func TestRefineMatchesOracle(t *testing.T) {
	forEachKernelShape(t, func(t *testing.T, m *Model, enc *tensor.Tensor, labels []int) {
		fixed, fixedWant := m.Clone(), m.Clone()
		adapt, adaptWant := m.Clone(), m.Clone()
		for epoch := 0; epoch < 3; epoch++ {
			if g, w := fixed.RefineEpoch(enc, labels), oracleRefineEpoch(fixedWant, enc, labels); g != w {
				t.Fatalf("epoch %d: RefineEpoch wrong = %d, oracle %d", epoch, g, w)
			}
			sameModel(t, fmt.Sprintf("RefineEpoch epoch %d", epoch), fixed, fixedWant)
			if g, w := refineEpoch(adapt, enc, labels, nil, 0.37), oracleRefineEpochAdaptive(adaptWant, enc, labels, 0.37); g != w {
				t.Fatalf("epoch %d: adaptive refinement wrong = %d, oracle %d", epoch, g, w)
			}
			sameModel(t, fmt.Sprintf("adaptive refinement epoch %d", epoch), adapt, adaptWant)
		}
	})
}

// gatherRows is what the federated trainers did before they passed row
// indices: copy the listed rows into a batch of their own.
func gatherRows(enc *tensor.Tensor, labels, rows []int) (*tensor.Tensor, []int) {
	d := enc.Dim(1)
	out := tensor.New(len(rows), d)
	y := make([]int, len(rows))
	for bi, r := range rows {
		copy(out.Data()[bi*d:(bi+1)*d], enc.Data()[r*d:(r+1)*d])
		y[bi] = labels[r]
	}
	return out, y
}

func TestRowIndexedTrainingEqualsGatherThenTrain(t *testing.T) {
	forEachKernelShape(t, func(t *testing.T, m *Model, enc *tensor.Tensor, labels []int) {
		rng := rand.New(rand.NewSource(5))
		rows := rng.Perm(enc.Dim(0))[:enc.Dim(0)*2/3]
		rows = append(rows, rows[0]) // a repeated row is legal
		batch, y := gatherRows(enc, labels, rows)

		got, want := m.Clone(), m.Clone()
		got.OneShotTrainRows(enc, labels, rows)
		want.OneShotTrain(batch, y)
		sameModel(t, "OneShotTrainRows", got, want)
		for epoch := 0; epoch < 2; epoch++ {
			if g, w := refineEpoch(got, enc, labels, rows, 0), want.RefineEpoch(batch, y); g != w {
				t.Fatalf("row-indexed refinement wrong = %d, gathered %d", g, w)
			}
			sameModel(t, "row-indexed refinement", got, want)
		}
		if g, w := refineEpoch(got, enc, labels, rows, 0.5), refineEpoch(want, batch, y, nil, 0.5); g != w {
			t.Fatalf("row-indexed adaptive refinement wrong = %d, gathered %d", g, w)
		}
		sameModel(t, "row-indexed adaptive refinement", got, want)

		// An empty, non-nil row list is zero examples, not "every row".
		before := got.Clone()
		got.OneShotTrainRows(enc, labels, []int{})
		if refineEpoch(got, enc, labels, []int{}, 0) != 0 || refineEpoch(got, enc, labels, []int{}, 1) != 0 {
			t.Fatal("empty row list refined something")
		}
		sameModel(t, "empty row list", got, before)
	})
}

func TestAccuracyEqualAcrossWorkers(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	forEachKernelShape(t, func(t *testing.T, m *Model, enc *tensor.Tensor, labels []int) {
		want := oracleAccuracy(m, enc, labels)
		for _, w := range []int{1, 2, 3, 8} {
			tensor.SetWorkers(w)
			if got := m.Accuracy(enc, labels); got != want {
				t.Fatalf("workers=%d: Accuracy = %v, oracle %v", w, got, want)
			}
		}
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestAccuracyChecksLabelsLength(t *testing.T) {
	m, enc, labels := kernelFixture(1, 3, 8, 6, false)
	mustPanic(t, "short labels", func() { m.Accuracy(enc, labels[:5]) })
	mustPanic(t, "long labels", func() { m.Accuracy(enc, append(labels, 0)) })
	mustPanic(t, "wrong-length hypervector", func() { m.Predict(make([]float32, 7)) })
	mustPanic(t, "wrong-width batch", func() { m.PredictBatch(tensor.New(6, 7)) })
	if got := m.Accuracy(tensor.New(0, 8), nil); got != 0 {
		t.Fatalf("Accuracy of no rows = %v, want 0", got)
	}
}

func TestRefineDoesNotAllocateSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("the class lanes come from a sync.Pool, which drops Puts at random under the race detector; the 0 allocs/op contract is asserted in non-race runs")
	}
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	// K=26 is past what a block's fixed scratch holds: the larger buffer
	// is kept in the pooled lanes.
	for _, k := range []int{10, 26} {
		m, enc, labels := kernelFixture(2, k, 256, 40, false)
		rows := rand.New(rand.NewSource(3)).Perm(40)[:25]
		for name, fn := range map[string]func(){
			"RefineEpoch":               func() { m.RefineEpoch(enc, labels) },
			"LocalUpdate/fixed/rows":    func() { refineEpoch(m, enc, labels, rows, 0) },
			"LocalUpdate/adaptive/all":  func() { refineEpoch(m, enc, labels, nil, 0.5) },
			"LocalUpdate/adaptive/rows": func() { refineEpoch(m, enc, labels, rows, 0.5) },
			"Predict":                   func() { m.Predict(enc.Data()[:256]) },
		} {
			if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
				t.Errorf("K=%d %s allocates %.1f times per call, want 0", k, name, allocs)
			}
		}
	}
}
