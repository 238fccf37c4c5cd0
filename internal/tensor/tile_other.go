//go:build !amd64

package tensor

// tile4x16 is the portable microkernel; see tile.go for the contract.
func tile4x16(c []float32, ldc int, a, b []float32, k int, accum bool) {
	tile4x16Go(c, ldc, a, b, k, accum)
}
