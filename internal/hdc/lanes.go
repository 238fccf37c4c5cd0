package hdc

import (
	"math"
	"sync"
)

// The similarity kernel works on class lanes: a per-call float64 copy of
// the prototypes, interleaved by class, so entry i*kp+k is float64(c_k[i]).
// kp is K rounded up to even, and the padding lane (odd K) is zero. The
// amd64 sweep puts four consecutive classes in the lanes of one AVX
// VMULPD/VADDPD, and the SSE2 lane copy two in one MULPD/ADDPD; each lane
// is still its own float64 chain in ascending index order, with no FMA and
// no horizontal add, so every dot product is bit-identical to Dot.

// sweepClasses is the number of classes one pass over h covers: five lane
// pairs (two class quads and a pair in the AVX sweep) plus the h·h chain,
// so K=10 (every dataset in the paper) is one sweep.
const sweepClasses = 10

// classLanes is the pooled per-call workspace of the similarity kernel.
type classLanes struct {
	kp    int       // K rounded up to even
	cs    []float64 // D x kp class lanes
	norms []float64 // the K prototype norms
	dots  []float64 // kp kernel outputs for the calling goroutine
	data  []float64 // backing array of cs, norms and dots
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
	n := kp*m.D + m.K + kp
	if cap(ln.data) < n {
		ln.data = make([]float64, n)
	}
	data := ln.data[:n]
	ln.kp = kp
	ln.cs, ln.norms, ln.dots = data[:kp*m.D], data[kp*m.D:kp*m.D+m.K], data[kp*m.D+m.K:]
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

// laneDots sets dots[k] to the inner product of class lane k with h for
// every k < kp and returns h·h, one sweep of up to sweepClasses lanes at a
// time. cs holds len(h) rows of kp lanes.
func laneDots(dots, cs []float64, h []float32, kp int) (hh float64) {
	// laneSweep does not check bounds; these two do it for every sweep.
	_, _ = cs[kp*len(h)-1], dots[kp-1]
	for lo := 0; lo < kp; lo += sweepClasses {
		hh = laneSweep(dots[lo:], cs[lo:], h, kp, min(kp-lo, sweepClasses)/2)
	}
	return hh
}

// laneSweepGo is the portable form of laneSweep: for j < 2*pairs it sets
// dots[j] = sum_i cs[i*kp+j] * float64(h[i]) and returns sum_i
// float64(h[i])^2, every sum its own chain in ascending i. Lane entries
// and h are float32 values, so every product is exact in float64 and the
// result is the same with or without a fused multiply-add.
func laneSweepGo(dots, cs []float64, h []float32, kp, pairs int) (hh float64) {
	var acc [sweepClasses]float64
	w := 2 * pairs
	for i, v := range h {
		x := float64(v)
		hh += float64(x * x)
		for j, c := range cs[i*kp : i*kp+w] {
			acc[j] += float64(c * x)
		}
	}
	copy(dots, acc[:w])
	return hh
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
