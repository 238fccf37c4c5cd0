package hdc

import (
	"math"
	"sync"
)

// The similarity kernel works on class lanes: a per-call float64 copy of
// the prototypes, interleaved by class, so entry i*kp+k is float64(c_k[i]).
// kp is K rounded up to even, and the padding lane (odd K) is zero. A
// sweep covers a block of hypervectors at once: on amd64 the rows sit in
// the lanes of one AVX-512 register (eight) or one AVX register (four),
// and each class lane is broadcast into a VMULPD/VADDPD against them.
// Every (row, class) pair is still its own float64 chain in ascending
// index order, with no FMA and no horizontal add, so every dot product is
// bit-identical to Dot.

// sweepClasses is the number of classes one pass over a block covers, so
// K=10 (every dataset in the paper) is one pass; more classes take more.
const sweepClasses = 10

// blockRows is the most hypervectors a block holds: one per float64 lane
// of a ZMM register.
const blockRows = 8

// rowKernel is a row-block kernel, named by the number of rows, at most
// blockRows, one call of its sweep covers. For every row j < rows, h_j =
// data[offs[j]:offs[j]+d], and every class k < w, sweep sets
//
//	dots[k*blockRows+j] = sum_i cs[i*kp+k] * float64(h_j[i])
//	hh[j]               = sum_i float64(h_j[i])^2
//
// every sum its own chain in ascending i; sweepRowsGo is the portable form
// and the reference. w must be even and in [2, sweepClasses], d >= 1;
// every row must lie inside data, dots must hold w*blockRows entries and
// cs (d-1)*kp + w. Nothing is bounds-checked.
type rowKernel int

// portableKernel covers one row per call: computed row by row, a wider
// block is no faster and only adds rows a refinement step discards.
const portableKernel rowKernel = 1

// classLanes is the pooled per-call workspace of the similarity kernel.
type classLanes struct {
	kp    int       // K rounded up to even
	cs    []float64 // D x kp class lanes
	norms []float64 // the K prototype norms
	data  []float64 // backing array of cs and norms
	big   []float64 // block scratch past K = 2*sweepClasses, kept between single-goroutine callers
}

var lanePool sync.Pool

// lanes returns pooled scratch holding m's prototypes as class lanes
// together with their norms. The caller hands it back with putLanes.
// Steady state performs zero allocations; growth re-allocates the backing
// array and keeps it for future callers.
func (m *Model) lanes() *classLanes {
	ln, _ := lanePool.Get().(*classLanes)
	if ln == nil {
		ln = new(classLanes)
	}
	kp := m.K + m.K&1
	n := kp*m.D + m.K
	if cap(ln.data) < n {
		ln.data = make([]float64, n)
	}
	data := ln.data[:n]
	ln.kp = kp
	ln.cs, ln.norms = data[:kp*m.D], data[kp*m.D:]
	m.fillLanes(ln)
	return ln
}

func putLanes(ln *classLanes) { lanePool.Put(ln) }

// fillLanes copies the prototypes into ln.cs and sums their squared norms
// on the way, each in ascending index order (Norm's chain), so ln.norms[k]
// is bit-identical to Norm(Class(k)). Full lane pairs go through laneFill
// a sweep at a time; an odd last class is copied here beside its zero
// padding lane.
func (m *Model) fillLanes(ln *classLanes) {
	k, d, kp := m.K, m.D, ln.kp
	p := m.Prototypes.Data()[:k*d]
	_ = ln.cs[kp*d-1] // laneFill does not check bounds
	for lo := 0; lo+1 < k; lo += sweepClasses {
		laneFill(ln.norms[lo:], ln.cs[lo:], p[lo*d:], d, kp, min(k-lo, sweepClasses)/2)
	}
	if k < kp {
		var s float64
		for i, v := range m.Class(k - 1) {
			f := float64(v)
			ln.cs[i*kp+k-1], ln.cs[i*kp+k] = f, 0
			s += float64(f * f)
		}
		ln.norms[k-1] = s
	}
	for c, s := range ln.norms {
		ln.norms[c] = math.Sqrt(s)
	}
}

// block is one goroutine's block of rows for the similarity kernel: the
// offsets of up to sweeper hypervectors in one float32 array, the last
// repeated to fill a short block, and the kernel's outputs for them.
type block struct {
	offs [blockRows]int
	hh   [blockRows]float64 // h·h of each row
	buf  [2 * sweepClasses * (blockRows + 1)]float64
	big  []float64 // scratch's buffers when they do not fit in buf
}

// scratch returns b's dot products, dots[k*blockRows+j] = class lane k ·
// row j for k < kp, and a K-entry buffer for one row's similarities. Both
// live in buf for every K up to 2*sweepClasses.
func (b *block) scratch(kp, k int) (dots, sims []float64) {
	s := b.buf[:]
	if n := kp*blockRows + k; n > len(s) {
		if len(b.big) < n {
			//fhdnn:allow hotalloc only K > 2*sweepClasses (the 26-class ISOLET stand-in) allocates; refine and Predict keep the buffer in the pooled lanes
			b.big = make([]float64, n)
		}
		s = b.big
	}
	return s[:kp*blockRows], s[kp*blockRows : kp*blockRows+k]
}

// sweep fills the dot products and b.hh for the first sweeper rows of b,
// whose entries are data[b.offs[j]:b.offs[j]+d], one pass of up to
// sweepClasses class lanes at a time. The caller has checked that every
// row, the repeats included, lies inside data.
func (ln *classLanes) sweep(b *block, data []float32, d int) {
	kp := ln.kp
	dots, _ := b.scratch(kp, len(ln.norms))
	// The kernels do not check bounds; this does it for every pass.
	_ = ln.cs[kp*d-1]
	for lo := 0; lo < kp; lo += sweepClasses {
		sweeper.sweep(dots[lo*blockRows:], &b.hh, ln.cs[lo:], data, &b.offs, d, kp, min(kp-lo, sweepClasses))
	}
}

// similarities returns the cosine similarity of row j of a swept block
// with every prototype. A zero prototype or a zero row has similarity 0.
func (ln *classLanes) similarities(b *block, j int) []float64 {
	dots, sims := b.scratch(ln.kp, len(ln.norms))
	hn := math.Sqrt(b.hh[j])
	for k, n := range ln.norms {
		if n == 0 || hn == 0 {
			sims[k] = 0
		} else {
			sims[k] = dots[k*blockRows+j] / (n * hn)
		}
	}
	return sims
}

// sweepRowsGo is the portable row-block kernel and the reference of every
// rowKernel: for every row j < n, h_j = data[offs[j]:offs[j]+d], and every
// class k < w,
//
//	dots[k*blockRows+j] = sum_i cs[i*kp+k] * float64(h_j[i])
//	hh[j]               = sum_i float64(h_j[i])^2
//
// every sum its own chain in ascending i. Lane entries and h are float32
// values, so every product is exact in float64 and the result is the same
// with or without a fused multiply-add.
func sweepRowsGo(dots []float64, hh *[blockRows]float64, cs []float64, data []float32, offs *[blockRows]int, n, d, kp, w int) {
	for j, off := range offs[:n] {
		var acc [sweepClasses]float64
		var s float64
		for i, v := range data[off : off+d] {
			x := float64(v)
			s += float64(x * x)
			for k, c := range cs[i*kp : i*kp+w] {
				acc[k] += float64(c * x)
			}
		}
		hh[j] = s
		for k, a := range acc[:w] {
			dots[k*blockRows+j] = a
		}
	}
}

// laneFillGo is the portable form of laneFill: for j < 2*pairs it copies
// row j of p into lane j of cs and sets sq[j] to its squared norm, summed
// in ascending index order.
func laneFillGo(sq, cs []float64, p []float32, d, kp, pairs int) {
	var acc [sweepClasses]float64
	w := 2 * pairs
	for i := 0; i < d; i++ {
		row := cs[i*kp : i*kp+w]
		for j := range row {
			f := float64(p[j*d+i])
			row[j] = f
			acc[j] += float64(f * f)
		}
	}
	copy(sq, acc[:w])
}
