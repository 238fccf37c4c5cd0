package hdc

import "fhdnn/internal/tensor"

// laneSweep computes, for every j < 2*pairs,
//
//	dots[j] = sum_i cs[i*kp+j] * float64(h[i])
//
// and returns sum_i float64(h[i])^2, every sum its own chain in ascending
// i; laneSweepGo is the portable form and the reference. pairs must be in
// [1, 5], len(h) >= 1, len(dots) >= 2*pairs, and cs must hold
// (len(h)-1)*kp + 2*pairs entries; nothing is bounds-checked. On a CPU
// without AVX it runs laneSweepGo.
func laneSweep(dots, cs []float64, h []float32, kp, pairs int) float64 {
	if tensor.HasAVX() {
		return laneSweepAVX(dots, cs, h, kp, pairs)
	}
	return laneSweepGo(dots, cs, h, kp, pairs)
}

// laneSweepAVX is laneSweep in AVX: four classes per YMM register and an
// odd last pair in XMM (VMULPD + VADDPD, never FMA), h·h in a scalar
// VMULSD/VADDSD chain, so every result matches the scalar loop bit for bit.
//
//go:noescape
func laneSweepAVX(dots, cs []float64, h []float32, kp, pairs int) float64

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
