package tensor

import "math"

// AllFinite reports whether no entry of x is NaN or +-Inf: whether no
// entry has an all-ones float32 exponent. On a CPU with AVX it runs
// allFiniteAVX, 32 values per step; allFiniteGo is the portable form and
// the reference.
func AllFinite(x []float32) bool { return allFinite(x) }

// allFiniteGo is AllFinite one exponent test at a time, stopping at the
// first non-finite entry.
func allFiniteGo(x []float32) bool {
	for _, v := range x {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}
