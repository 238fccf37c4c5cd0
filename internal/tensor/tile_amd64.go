package tensor

// tile4x16AVX is tile4x16Go in AVX: the 4x16 block of C lives in eight
// YMM accumulators for the whole k loop, each lane one element's chain,
// VMULPS then VADDPS per step and never FMA, so the bits match the twin.
// Nothing is bounds-checked: c must reach 3*ldc+16 entries, a 4*k and b
// 16*k.
//
//go:noescape
func tile4x16AVX(c []float32, ldc int, a, b []float32, k int, accum bool)

// cpuFeatures reports whether the CPU has AVX and the OS saves YMM state,
// and whether it also has AVX-512F and the OS saves the opmask and ZMM
// state.
func cpuFeatures() (avx, avx512 bool)

var useAVX, useAVX512 = cpuFeatures()

// HasAVX reports whether the AVX kernels may run: the CPU has AVX and the
// OS saves YMM state. It and HasAVX512 are the module's one CPU check;
// kernels in other packages dispatch on them too, and fall back to a
// narrower kernel or their portable twin without them.
func HasAVX() bool { return useAVX }

// HasAVX512 reports whether the AVX-512F kernels may run: HasAVX, the CPU
// has AVX-512F, and the OS saves the opmask and ZMM state.
func HasAVX512() bool { return useAVX512 }

func tile4x16(c []float32, ldc int, a, b []float32, k int, accum bool) {
	if useAVX {
		tile4x16AVX(c, ldc, a, b, k, accum)
		return
	}
	tile4x16Go(c, ldc, a, b, k, accum)
}
