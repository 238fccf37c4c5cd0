//go:build !fhdnndebug

package tensor

// guardNoAlias is the release-build stub of the debug aliasing guard (see
// aliasguard_debug.go). It compiles to nothing so the Into kernels stay
// allocation- and branch-free in production builds.
func guardNoAlias(op string, dst, s1, s2 []float32) {}
