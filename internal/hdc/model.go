package hdc

import (
	"fmt"
	"math"

	"fhdnn/internal/tensor"
)

// Model is the HD classifier: one prototype hypervector per class,
// C = [c_1; ...; c_K] (paper Sec. 3.4.1). Prototypes are integer-valued in
// exact arithmetic (sums of +-1 encodings) but stored as float32 so channel
// perturbations can be applied directly.
type Model struct {
	K, D       int
	Prototypes *tensor.Tensor // K x D
}

// NewModel allocates a zeroed model for k classes of d-dimensional
// hypervectors.
func NewModel(k, d int) *Model {
	if k <= 0 || d <= 0 {
		panic(fmt.Sprintf("hdc: invalid model dims k=%d d=%d", k, d))
	}
	return &Model{K: k, D: d, Prototypes: tensor.New(k, d)}
}

// Clone returns a deep copy.
func (m *Model) Clone() *Model {
	return &Model{K: m.K, D: m.D, Prototypes: m.Prototypes.Clone()}
}

// Class returns the prototype row for class k (shared storage).
func (m *Model) Class(k int) []float32 {
	return m.Prototypes.Data()[k*m.D : (k+1)*m.D]
}

// BundleInto adds hypervector h into class k's prototype (one-shot
// learning: c_k = sum_i h_i^k).
func (m *Model) BundleInto(k int, h []float32) {
	Bundle(m.Class(k), h)
}

// similarities is the HD similarity kernel: it returns the cosine
// similarity of h with every prototype, given ln = m.lanes(), written into
// dots (kp entries, the first K returned). A zero prototype or a zero h has
// similarity 0.
//
//fhdnn:hotpath
func (m *Model) similarities(ln *classLanes, dots []float64, h []float32) []float64 {
	if len(h) != m.D {
		panic(fmt.Sprintf("hdc: hypervector length %d, model dimension %d", len(h), m.D))
	}
	hn := math.Sqrt(laneDots(dots, ln.cs, h, ln.kp))
	sims := dots[:m.K]
	for k, n := range ln.norms {
		if n == 0 || hn == 0 {
			sims[k] = 0
		} else {
			sims[k] /= n * hn
		}
	}
	return sims
}

// best returns the winning class of a similarity vector: the first
// strict maximum, class 0 when nothing beats -2 (a NaN never wins).
func best(sims []float64) (class int, sim float64) {
	sim = -2
	for k, s := range sims {
		if s > sim {
			class, sim = k, s
		}
	}
	return class, sim
}

// Predict returns the class whose prototype has the highest cosine
// similarity with h, along with that similarity.
func (m *Model) Predict(h []float32) (class int, sim float64) {
	ln := m.lanes()
	class, sim = best(m.similarities(ln, ln.dots, h))
	putLanes(ln)
	return class, sim
}

// Similarities returns the cosine similarity of h against every prototype.
func (m *Model) Similarities(h []float32) []float64 {
	ln := m.lanes()
	out := make([]float64, m.K)
	copy(out, m.similarities(ln, ln.dots, h))
	putLanes(ln)
	return out
}

// PredictBatch classifies every row of encoded. The class lanes and norms
// are built once and the rows are split over the tensor worker pool.
func (m *Model) PredictBatch(encoded *tensor.Tensor) []int {
	n := encoded.Dim(0)
	if encoded.Len() != n*m.D {
		panic("hdc: PredictBatch encoded width mismatch")
	}
	ln := m.lanes()
	out := make([]int, n)
	tensor.ParallelFor(n, func(lo, hi int) {
		var buf [2 * sweepClasses]float64
		dots := buf[:]
		if ln.kp > len(buf) {
			dots = make([]float64, ln.kp)
		}
		for s := lo; s < hi; s++ {
			out[s], _ = best(m.similarities(ln, dots, encoded.Data()[s*m.D:(s+1)*m.D]))
		}
	})
	putLanes(ln)
	return out
}

// checkRows validates the arguments shared by the training entry points
// and returns the number of examples: every row of encoded when rows is
// nil, else the listed rows. labels always runs parallel to encoded.
func (m *Model) checkRows(op string, encoded *tensor.Tensor, labels, rows []int) int {
	if len(labels) != encoded.Dim(0) {
		panic("hdc: " + op + " labels length mismatch")
	}
	if rows != nil {
		return len(rows)
	}
	return len(labels)
}

// OneShotTrain bundles every encoded example into its class prototype.
func (m *Model) OneShotTrain(encoded *tensor.Tensor, labels []int) {
	m.OneShotTrainRows(encoded, labels, nil)
}

// OneShotTrainRows is OneShotTrain over the listed rows of encoded, in
// list order; labels[r] is the class of row r. A nil rows means every row.
func (m *Model) OneShotTrainRows(encoded *tensor.Tensor, labels, rows []int) {
	n := m.checkRows("OneShotTrain", encoded, labels, rows)
	for s := 0; s < n; s++ {
		r := rowAt(rows, s)
		m.BundleInto(labels[r], encoded.Data()[r*m.D:(r+1)*m.D])
	}
}

// rowAt returns the s-th example's row: rows[s], or s itself when rows is
// nil.
func rowAt(rows []int, s int) int {
	if rows == nil {
		return s
	}
	return rows[s]
}

// RefineEpoch performs one pass of iterative refinement (paper Sec. 3.4.1):
// for each mispredicted example, the hypervector is added to the correct
// prototype and subtracted from the mispredicted one. Returns the number of
// mispredictions.
func (m *Model) RefineEpoch(encoded *tensor.Tensor, labels []int) int {
	n := m.checkRows("RefineEpoch", encoded, labels, nil)
	ln := m.lanes()
	wrong := m.refine(ln, encoded.Data(), labels, nil, n)
	putLanes(ln)
	return wrong
}

// refine is the RefineEpoch loop. ln holds the class lanes and norms on
// entry and move keeps them current.
//
//fhdnn:hotpath
func (m *Model) refine(ln *classLanes, data []float32, labels, rows []int, n int) int {
	wrong := 0
	for s := 0; s < n; s++ {
		r := rowAt(rows, s)
		h := data[r*m.D : (r+1)*m.D]
		pred, _ := best(m.similarities(ln, ln.dots, h))
		y := labels[r]
		if pred == y {
			continue
		}
		wrong++
		m.move(ln, y, pred, 1, 1, h)
	}
	return wrong
}

// move applies one refinement step, c_y += up*h and c_pred -= down*h, and
// refreshes the two touched class lanes and norms from the float32 entries
// it has just written: the squared norms are summed in the ascending order
// Norm uses, so ln stays bit-identical to a rebuild. A unit step
// multiplies exactly, so the fixed rule's +-h is this with up = down = 1.
func (m *Model) move(ln *classLanes, y, pred int, up, down float32, h []float32) {
	correct, bad := m.Class(y)[:len(h)], m.Class(pred)[:len(h)]
	cs, kp := ln.cs[:len(h)*ln.kp], ln.kp
	var cc, bb float64
	for i, v := range h {
		correct[i] += float32(up * v)
		bad[i] -= float32(down * v)
		c, b := float64(correct[i]), float64(bad[i])
		cs[i*kp+y], cs[i*kp+pred] = c, b
		cc += float64(c * c)
		bb += float64(b * b)
	}
	ln.norms[y], ln.norms[pred] = math.Sqrt(cc), math.Sqrt(bb)
}

// refineAdaptive is one pass of similarity-weighted refinement (the
// OnlineHD scheme of Hernandez-Cano et al., DATE'21, a natural extension
// of the paper's fixed-step rule): every mispredicted example moves the
// prototypes by a step proportional to how wrong the model was,
//
//	c_correct += lr * (1 - sim_correct) * h
//	c_pred    -= lr * (1 - sim_pred)    * h
//
// which converges faster than the fixed rule on hard data and never
// overshoots on easy data. Returns the number of mispredictions; ln as in
// refine.
//
//fhdnn:hotpath
func (m *Model) refineAdaptive(ln *classLanes, data []float32, labels, rows []int, n int, lr float32) int {
	wrong := 0
	for s := 0; s < n; s++ {
		r := rowAt(rows, s)
		h := data[r*m.D : (r+1)*m.D]
		sims := m.similarities(ln, ln.dots, h)
		pred, top := 0, sims[0]
		for k, sim := range sims {
			if sim > top {
				pred, top = k, sim
			}
		}
		y := labels[r]
		if pred == y {
			continue
		}
		wrong++
		m.move(ln, y, pred, lr*float32(1-sims[y]), lr*float32(1-sims[pred]), h)
	}
	return wrong
}

// LocalUpdate is one FHDnn client's local update for a round (paper Sec.
// 3.4.1), over the listed rows of encoded (nil means every row). On the
// client's first participation (*bundled false) it bundles the rows into
// their class prototypes and sets *bundled; then it runs up to epochs
// refinement epochs, stopping after the first one with no mispredictions.
// lr picks the step rule: 0 is the paper's fixed rule (RefineEpoch's),
// anything else the similarity-weighted rule at rate lr (refineAdaptive).
// It returns the last epoch's mispredictions, 0 when no epoch ran. Batch
// size plays no role: HD training is per example, which is why the paper
// finds B has no influence on FHDnn.
//
// The class lanes are built once: every step keeps them bit-identical to
// a rebuild, so each epoch's result is that of one built from fresh lanes.
func (m *Model) LocalUpdate(encoded *tensor.Tensor, labels, rows []int, bundled *bool, epochs int, lr float32) int {
	if !*bundled {
		m.OneShotTrainRows(encoded, labels, rows)
		*bundled = true
	}
	if epochs <= 0 {
		return 0
	}
	n := m.checkRows("LocalUpdate", encoded, labels, rows)
	ln := m.lanes()
	wrong := 0
	for e := 0; e < epochs; e++ {
		if lr == 0 {
			wrong = m.refine(ln, encoded.Data(), labels, rows, n)
		} else {
			wrong = m.refineAdaptive(ln, encoded.Data(), labels, rows, n, lr)
		}
		if wrong == 0 {
			break
		}
	}
	putLanes(ln)
	return wrong
}

// Accuracy classifies every row of encoded and returns the fraction
// matching labels.
func (m *Model) Accuracy(encoded *tensor.Tensor, labels []int) float64 {
	n := encoded.Dim(0)
	if len(labels) != n {
		panic("hdc: Accuracy labels length mismatch")
	}
	if n == 0 {
		return 0
	}
	correct := 0
	for s, pred := range m.PredictBatch(encoded) {
		if pred == labels[s] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// Flat returns the model parameters as one flat vector (the transmitted
// update). The slice shares storage with the model.
func (m *Model) Flat() []float32 { return m.Prototypes.Data() }

// SetFlat overwrites the model parameters from a flat vector.
func (m *Model) SetFlat(flat []float32) {
	if len(flat) != m.K*m.D {
		panic("hdc: SetFlat length mismatch")
	}
	copy(m.Prototypes.Data(), flat)
}

// NumParams returns K*D.
func (m *Model) NumParams() int { return m.K * m.D }

// UpdateSizeBytes returns the size of one transmitted model update at the
// given bytes-per-parameter (4 for float32/int32 representations).
func (m *Model) UpdateSizeBytes(bytesPerParam int) int {
	return m.NumParams() * bytesPerParam
}
