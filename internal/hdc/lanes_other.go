//go:build !amd64

package hdc

// sweeper is the portable row-block kernel; see lanes.go for the contract.
var sweeper = portableKernel

func (rowKernel) sweep(dots []float64, hh *[blockRows]float64, cs []float64, data []float32, offs *[blockRows]int, d, kp, w int) {
	sweepRowsGo(dots, hh, cs, data, offs, 1, d, kp, w)
}

// laneFill is the portable lane copy; see lanes_amd64.go for the contract.
func laneFill(sq, cs []float64, p []float32, d, kp, pairs int) {
	laneFillGo(sq, cs, p, d, kp, pairs)
}
