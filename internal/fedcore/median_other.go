//go:build !amd64

package fedcore

// medianBlock reports false: every block takes the portable path; see
// median_amd64.go.
func medianBlock(dst []float32, rows [][]float32, j0 int, blk []uint32) bool { return false }
