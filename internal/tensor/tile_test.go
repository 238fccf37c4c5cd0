package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// tileOperand draws n entries, about a quarter of them from the IEEE edge
// cases: signed zeros, subnormals, infinities, and magnitudes whose
// products and sums overflow.
func tileOperand(rng *rand.Rand, n int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -3e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38,
	}
	out := make([]float32, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = specials[rng.Intn(len(specials))]
		} else {
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

// TestTileKernelMatchesPortable pins the dispatched microkernel (the AVX
// asm where the CPU has it) against its portable twin, bit for bit, with
// NaN compared as "both NaN": its payload is not part of the contract.
// C has a row stride past 16, and the entries outside the tile must come
// back untouched. Where the asm does not run, both sides are the twin.
func TestTileKernelMatchesPortable(t *testing.T) {
	const ldc = tileN + 3
	rng := rand.New(rand.NewSource(44))
	for _, k := range []int{1, 2, 3, 7, 64, 513} {
		for _, accum := range []bool{false, true} {
			a, b := tileOperand(rng, tileM*k), tileOperand(rng, k*tileN)
			c := tileOperand(rng, tileM*ldc)
			got, want := append([]float32(nil), c...), append([]float32(nil), c...)
			tile4x16(got, ldc, a, b, k, accum)
			tile4x16Go(want, ldc, a, b, k, accum)
			for i := range got {
				g, w := got[i], want[i]
				if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("k=%d accum=%v: C[%d][%d] = %v (%#x), portable %v (%#x)",
						k, accum, i/ldc, i%ldc, g, math.Float32bits(g), w, math.Float32bits(w))
				}
				if i%ldc >= tileN && math.Float32bits(g) != math.Float32bits(c[i]) {
					t.Fatalf("k=%d accum=%v: C[%d][%d] outside the tile changed", k, accum, i/ldc, i%ldc)
				}
			}
		}
	}
}
