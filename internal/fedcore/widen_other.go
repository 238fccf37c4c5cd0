//go:build !amd64

package fedcore

// widenAdd is widenAddGo; see widen_amd64.go.
func widenAdd(sum []float64, x []float32) { widenAddGo(sum, x) }
