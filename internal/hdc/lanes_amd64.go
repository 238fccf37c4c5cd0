package hdc

import "fhdnn/internal/tensor"

// sweeper is the widest row-block kernel this CPU runs. A block is one
// call, so a refinement step, which discards the rest of its block,
// discards at most one call's work.
var sweeper = func() rowKernel {
	switch {
	case tensor.HasAVX512():
		return avx512Kernel
	case tensor.HasAVX():
		return avxKernel
	}
	return portableKernel
}()

const (
	avx512Kernel rowKernel = 8
	avxKernel    rowKernel = 4
)

// sweep runs the kernel k names; the assembly kernels are called directly
// so that no argument escapes.
func (k rowKernel) sweep(dots []float64, hh *[blockRows]float64, cs []float64, data []float32, offs *[blockRows]int, d, kp, w int) {
	switch k {
	case avx512Kernel:
		sweep8AVX512(dots, hh, cs, data, offs, d, kp, w)
	case avxKernel:
		sweep4AVX(dots, hh, cs, data, offs, d, kp, w)
	default:
		sweepRowsGo(dots, hh, cs, data, offs, 1, d, kp, w)
	}
}

// sweep8AVX512 is the rowKernel of eight rows in AVX-512F: the eight
// rows' element i in the lanes of one ZMM register, each class lane a
// broadcast (VMULPD then VADDPD, never FMA) into its own ZMM accumulator,
// so every lane matches the scalar chain bit for bit.
//
//go:noescape
func sweep8AVX512(dots []float64, hh *[blockRows]float64, cs []float64, data []float32, offs *[blockRows]int, d, kp, w int)

// sweep4AVX is the rowKernel of four rows in AVX, one per lane of a YMM
// register; it reads offs[:4] and writes dots[k*blockRows+j] and hh[j]
// for j < 4.
//
//go:noescape
func sweep4AVX(dots []float64, hh *[blockRows]float64, cs []float64, data []float32, offs *[blockRows]int, d, kp, w int)

// laneFill sets, for every j < 2*pairs and i < d,
//
//	cs[i*kp+j] = float64(p[j*d+i])
//	sq[j]      = sum_i cs[i*kp+j]^2
//
// each sum one chain in ascending i (Norm's chain, before the square
// root); laneFillGo is the portable form and the reference. The amd64
// implementation converts one lane pair per CVTPS2PD and sums the two
// norm chains with MULPD + ADDPD. pairs must be in [1, 5], d >= 1,
// len(sq) >= 2*pairs, p must hold 2*pairs rows of d entries and cs
// (d-1)*kp + 2*pairs entries; nothing is bounds-checked.
//
//go:noescape
func laneFill(sq, cs []float64, p []float32, d, kp, pairs int)
