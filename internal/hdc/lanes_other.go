//go:build !amd64

package hdc

// laneSweep and laneFill are the portable class-lane kernels; see
// lanes_amd64.go for the contracts.
func laneSweep(dots, cs []float64, h []float32, kp, pairs int) float64 {
	return laneSweepGo(dots, cs, h, kp, pairs)
}

func laneFill(sq, cs []float64, p []float32, d, kp, pairs int) {
	laneFillGo(sq, cs, p, d, kp, pairs)
}
