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

// maxStackClasses bounds the class count whose similarity scratch lives in
// a fixed-size array of the calling frame; larger models allocate it once
// per call.
const maxStackClasses = 16

// simScratch is the per-call workspace of the similarity kernel: the
// cached prototype norms and one similarity per class.
type simScratch [2 * maxStackClasses]float64

// scratch cuts the norm and similarity vectors for m out of buf.
func (m *Model) scratch(buf *simScratch) (norms, sims []float64) {
	if m.K <= maxStackClasses {
		return buf[:m.K], buf[maxStackClasses : maxStackClasses+m.K]
	}
	s := make([]float64, 2*m.K)
	return s[:m.K], s[m.K:]
}

// classNorms fills norms[k] with the L2 norm of prototype k.
func (m *Model) classNorms(norms []float64) {
	for k := range norms {
		norms[k] = Norm(m.Class(k))
	}
}

// simBlock is the number of prototypes the similarity kernel sweeps at
// once: with the chain for h itself that is six independent float64 sums
// in flight, enough to hide the add latency one chain alone would wait on,
// and K=10 (every dataset in the paper) is exactly two sweeps.
const simBlock = 5

// dotBlock returns the inner products of c0..c4 with h, and of h with
// itself, in one sweep. Every sum is its own float64 chain in ascending
// index order, so each is bit-identical to Dot (and hh to the square of
// Norm); the chains only share the loads of h and overlap in the pipeline.
func dotBlock(c0, c1, c2, c3, c4, h []float32) (s [simBlock]float64, hh float64) {
	c0, c1, c2, c3, c4 = c0[:len(h)], c1[:len(h)], c2[:len(h)], c3[:len(h)], c4[:len(h)]
	var s0, s1, s2, s3, s4 float64
	for i, v := range h {
		x := float64(v)
		s0 += float64(c0[i]) * x
		s1 += float64(c1[i]) * x
		s2 += float64(c2[i]) * x
		s3 += float64(c3[i]) * x
		s4 += float64(c4[i]) * x
		hh += x * x
	}
	return [simBlock]float64{s0, s1, s2, s3, s4}, hh
}

// similarities is the HD similarity kernel: it writes the cosine similarity
// of h with every prototype into sims, given norms[k] = Norm(Class(k)).
// Prototypes are swept simBlock at a time (the last block repeats its final
// row); a zero prototype or a zero h has similarity 0.
//
//fhdnn:hotpath
func (m *Model) similarities(sims, norms []float64, h []float32) {
	if len(h) != m.D {
		panic(fmt.Sprintf("hdc: hypervector length %d, model dimension %d", len(h), m.D))
	}
	last := m.K - 1
	var hh float64
	for k := 0; k <= last; k += simBlock {
		var s [simBlock]float64
		s, hh = dotBlock(m.Class(k), m.Class(min(k+1, last)), m.Class(min(k+2, last)),
			m.Class(min(k+3, last)), m.Class(min(k+4, last)), h)
		copy(sims[k:], s[:])
	}
	hn := math.Sqrt(hh)
	for k, n := range norms {
		if n == 0 || hn == 0 {
			sims[k] = 0
		} else {
			sims[k] /= n * hn
		}
	}
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
	var buf simScratch
	norms, sims := m.scratch(&buf)
	m.classNorms(norms)
	m.similarities(sims, norms, h)
	return best(sims)
}

// Similarities returns the cosine similarity of h against every prototype.
func (m *Model) Similarities(h []float32) []float64 {
	var buf simScratch
	norms, _ := m.scratch(&buf)
	m.classNorms(norms)
	out := make([]float64, m.K)
	m.similarities(out, norms, h)
	return out
}

// PredictBatch classifies every row of encoded. The prototype norms are
// computed once and the rows are split over the tensor worker pool.
func (m *Model) PredictBatch(encoded *tensor.Tensor) []int {
	n := encoded.Dim(0)
	if encoded.Len() != n*m.D {
		panic("hdc: PredictBatch encoded width mismatch")
	}
	var buf simScratch
	norms, _ := m.scratch(&buf)
	m.classNorms(norms)
	out := make([]int, n)
	tensor.ParallelFor(n, func(lo, hi int) {
		var buf simScratch
		_, sims := m.scratch(&buf)
		for s := lo; s < hi; s++ {
			m.similarities(sims, norms, encoded.Data()[s*m.D:(s+1)*m.D])
			out[s], _ = best(sims)
		}
	})
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
	return m.RefineEpochRows(encoded, labels, nil)
}

// RefineEpochRows is RefineEpoch over the listed rows of encoded, in list
// order, without gathering them into a batch first; labels[r] is the class
// of row r. A nil rows means every row.
func (m *Model) RefineEpochRows(encoded *tensor.Tensor, labels, rows []int) int {
	n := m.checkRows("RefineEpoch", encoded, labels, rows)
	var buf simScratch
	norms, sims := m.scratch(&buf)
	m.classNorms(norms)
	return m.refine(encoded.Data(), labels, rows, n, norms, sims)
}

// refine is the RefineEpoch loop. norms holds the prototype norms on entry
// and move keeps it current.
//
//fhdnn:hotpath
func (m *Model) refine(data []float32, labels, rows []int, n int, norms, sims []float64) int {
	wrong := 0
	for s := 0; s < n; s++ {
		r := rowAt(rows, s)
		h := data[r*m.D : (r+1)*m.D]
		m.similarities(sims, norms, h)
		pred, _ := best(sims)
		y := labels[r]
		if pred == y {
			continue
		}
		wrong++
		m.move(norms, y, pred, 1, 1, h)
	}
	return wrong
}

// move applies one refinement step, c_y += up*h and c_pred -= down*h, and
// refreshes the two cached norms: the squared norms are summed as the new
// entries are written, in the ascending order Norm uses, so norms stays
// bit-identical to a recomputation. A unit step multiplies exactly, so the
// fixed rule's +-h is this with up = down = 1.
func (m *Model) move(norms []float64, y, pred int, up, down float32, h []float32) {
	correct, bad := m.Class(y)[:len(h)], m.Class(pred)[:len(h)]
	var cc, bb float64
	for i, v := range h {
		correct[i] += up * v
		bad[i] -= down * v
		c, b := correct[i], bad[i]
		cc += float64(c) * float64(c)
		bb += float64(b) * float64(b)
	}
	norms[y], norms[pred] = math.Sqrt(cc), math.Sqrt(bb)
}

// RefineEpochAdaptive performs one pass of similarity-weighted refinement
// (the OnlineHD scheme of Hernandez-Cano et al., DATE'21, a natural
// extension of the paper's fixed-step rule): every example updates the
// prototypes with a step proportional to how wrong the model was,
//
//	c_correct += lr * (1 - sim_correct) * h
//	c_pred    -= lr * (1 - sim_pred)    * h   (only when mispredicted)
//
// which converges faster than the fixed rule on hard data and never
// overshoots on easy data. Returns the number of mispredictions.
func (m *Model) RefineEpochAdaptive(encoded *tensor.Tensor, labels []int, lr float32) int {
	return m.RefineEpochAdaptiveRows(encoded, labels, nil, lr)
}

// RefineEpochAdaptiveRows is RefineEpochAdaptive over the listed rows of
// encoded, in list order; labels[r] is the class of row r. A nil rows means
// every row.
func (m *Model) RefineEpochAdaptiveRows(encoded *tensor.Tensor, labels, rows []int, lr float32) int {
	n := m.checkRows("RefineEpochAdaptive", encoded, labels, rows)
	var buf simScratch
	norms, sims := m.scratch(&buf)
	m.classNorms(norms)
	return m.refineAdaptive(encoded.Data(), labels, rows, n, lr, norms, sims)
}

// refineAdaptive is the RefineEpochAdaptive loop; norms as in refine.
//
//fhdnn:hotpath
func (m *Model) refineAdaptive(data []float32, labels, rows []int, n int, lr float32, norms, sims []float64) int {
	wrong := 0
	for s := 0; s < n; s++ {
		r := rowAt(rows, s)
		h := data[r*m.D : (r+1)*m.D]
		m.similarities(sims, norms, h)
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
		m.move(norms, y, pred, lr*float32(1-sims[y]), lr*float32(1-sims[pred]), h)
	}
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

// Add accumulates another model's prototypes into m (federated bundling,
// paper Eq. 1).
func (m *Model) Add(o *Model) {
	if m.K != o.K || m.D != o.D {
		panic("hdc: Add model shape mismatch")
	}
	m.Prototypes.AddInPlace(o.Prototypes)
}

// Scale multiplies all prototypes by s (used for averaging variants).
func (m *Model) Scale(s float32) { m.Prototypes.Scale(s) }

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
