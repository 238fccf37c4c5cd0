package tensor

// allFiniteAVX is allFiniteGo in AVX: per 32 values, VANDPS with the
// exponent mask, VCMPPS equal against it, VORPS of the four results and
// one VTESTPS; then 8 values per step, then a scalar tail. It reads all of
// x.
//
//go:noescape
func allFiniteAVX(x []float32) bool

func allFinite(x []float32) bool {
	if useAVX {
		return allFiniteAVX(x)
	}
	return allFiniteGo(x)
}
