package fedcore

import "fhdnn/internal/tensor"

// widenAddAVX is widenAddGo in AVX: VCVTPS2PD widens 16 values per step
// into four YMM registers and VADDPD adds the sums to them, the widened
// value first, as the compiled scalar loop does, so a NaN plus a NaN keeps
// the same payload. Nothing is bounds-checked: len(sum) must be at least
// len(x).
//
//go:noescape
func widenAddAVX(sum []float64, x []float32)

// widenAdd is widenAddGo, in AVX when the CPU has it. Either way it
// panics, before adding anything, when sum is shorter than x.
func widenAdd(sum []float64, x []float32) {
	if tensor.HasAVX() {
		widenAddAVX(sum[:len(x)], x)
		return
	}
	widenAddGo(sum, x)
}
