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

// sweepOne returns the cosine similarity of h with every prototype, in
// b's scratch, sweeping h against ln = m.lanes() as a block of one row
// (repeated). A zero prototype or a zero h has similarity 0.
func (m *Model) sweepOne(ln *classLanes, b *block, h []float32) []float64 {
	if len(h) != m.D {
		panic(fmt.Sprintf("hdc: hypervector length %d, model dimension %d", len(h), m.D))
	}
	b.offs, b.big = [blockRows]int{}, ln.big
	ln.sweep(b, h, m.D)
	ln.big = b.big
	return ln.similarities(b, 0)
}

// fillBlock points b at the examples s, s+1, ... of data (the rows
// rowAt(rows, ·) of width D), at most sweeper of them and none past n,
// and repeats the last into the rest of b. It returns how many it took.
func (m *Model) fillBlock(b *block, data []float32, rows []int, s, n int) int {
	cnt := min(n-s, int(sweeper))
	for j := range b.offs {
		if j >= cnt {
			b.offs[j] = b.offs[cnt-1]
			continue
		}
		r := rowAt(rows, s+j)
		_ = data[r*m.D : (r+1)*m.D] // the kernel does not check bounds
		b.offs[j] = r * m.D
	}
	return cnt
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
	var b block
	class, sim = best(m.sweepOne(ln, &b, h))
	putLanes(ln)
	return class, sim
}

// Similarities returns the cosine similarity of h against every prototype.
func (m *Model) Similarities(h []float32) []float64 {
	ln := m.lanes()
	var b block
	out := make([]float64, m.K)
	copy(out, m.sweepOne(ln, &b, h))
	putLanes(ln)
	return out
}

// PredictBatch classifies every row of encoded. The class lanes and norms
// are built once, the rows are split over the tensor worker pool, and
// each worker sweeps its rows a block at a time.
func (m *Model) PredictBatch(encoded *tensor.Tensor) []int {
	n := encoded.Dim(0)
	if encoded.Len() != n*m.D {
		panic("hdc: PredictBatch encoded width mismatch")
	}
	ln := m.lanes()
	out := make([]int, n)
	data := encoded.Data()
	tensor.ParallelFor(n, func(lo, hi int) {
		var b block
		for s := lo; s < hi; {
			cnt := m.fillBlock(&b, data, nil, s, hi)
			ln.sweep(&b, data, m.D)
			for j := range cnt {
				out[s+j], _ = best(ln.similarities(&b, j))
			}
			s += cnt
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
	wrong := m.refine(ln, encoded.Data(), labels, nil, n, 0)
	putLanes(ln)
	return wrong
}

// refine is one refinement epoch over the listed rows of data and returns
// the number of mispredictions. lr 0 is the paper's fixed rule: every
// mispredicted example adds h to its class and subtracts it from the
// predicted one. Any other lr is similarity-weighted refinement (the
// OnlineHD scheme of Hernandez-Cano et al., DATE'21, a natural extension
// of the fixed rule), which moves the prototypes by a step proportional to
// how wrong the model was,
//
//	c_correct += lr * (1 - sim_correct) * h
//	c_pred    -= lr * (1 - sim_pred)    * h
//
// and converges faster on hard data without overshooting on easy data.
//
// ln holds the class lanes and norms on entry and move keeps them
// current. refine sweeps a block of rows against the current lanes, then
// walks it in order; at the first misprediction it moves the prototypes
// and starts the next block at the following row, discarding the rest. So
// every similarity it reads is the one a row-at-a-time loop would see, and
// a step throws away at most one kernel call's rows (see sweeper). It
// allocates nothing (TestRefineDoesNotAllocateSerial).
func (m *Model) refine(ln *classLanes, data []float32, labels, rows []int, n int, lr float32) int {
	b := block{big: ln.big}
	wrong := 0
	for s := 0; s < n; {
		cnt := m.fillBlock(&b, data, rows, s, n)
		ln.sweep(&b, data, m.D)
		for j := range cnt {
			y := labels[rowAt(rows, s)]
			s++
			sims := ln.similarities(&b, j)
			pred, _ := best(sims)
			if lr != 0 && sims[0] != sims[0] {
				// The weighted rule's argmax starts from class 0's
				// similarity, so a NaN there is never beaten.
				pred = 0
			}
			if pred == y {
				continue
			}
			wrong++
			up, down := float32(1), float32(1)
			if lr != 0 {
				up, down = lr*float32(1-sims[y]), lr*float32(1-sims[pred])
			}
			m.move(ln, y, pred, up, down, data[b.offs[j]:b.offs[j]+m.D])
			break
		}
	}
	ln.big = b.big
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

// LocalUpdate is one FHDnn client's local update for a round (paper Sec.
// 3.4.1), over the listed rows of encoded (nil means every row). On the
// client's first participation (*bundled false) it bundles the rows into
// their class prototypes and sets *bundled; then it runs up to epochs
// refinement epochs, stopping after the first one with no mispredictions.
// lr picks the step rule: 0 is the paper's fixed rule (RefineEpoch's),
// anything else the similarity-weighted rule at rate lr (see refine).
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
		if wrong = m.refine(ln, encoded.Data(), labels, rows, n, lr); wrong == 0 {
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
