package tensor

// tile4x16AVX is tile4x16Go in AVX: the 4x16 block of C lives in eight
// YMM accumulators for the whole k loop, each lane one element's chain,
// VMULPS then VADDPS per step and never FMA, so the bits match the twin.
// Nothing is bounds-checked: c must reach 3*ldc+16 entries, a 4*k and b
// 16*k.
//
//go:noescape
func tile4x16AVX(c []float32, ldc int, a, b []float32, k int, accum bool)

// avxEnabled reports whether the CPU has AVX and the OS saves YMM state.
func avxEnabled() bool

var useAVX = avxEnabled()

// HasAVX reports whether the AVX kernels may run: the CPU has AVX and the
// OS saves YMM state. It is the one AVX check of the module; kernels in
// other packages dispatch on it too, and fall back to their portable twin
// without it.
func HasAVX() bool { return useAVX }

func tile4x16(c []float32, ldc int, a, b []float32, k int, accum bool) {
	if useAVX {
		tile4x16AVX(c, ldc, a, b, k, accum)
		return
	}
	tile4x16Go(c, ldc, a, b, k, accum)
}
