//go:build !amd64

package hdc

// projector is the portable projection kernel; see projectGo.
var projector = portableProjector

func (projectKernel) project(dst []float32, ldd int, zpm []float32, offs []int32, groups, s int, binarize bool, scale float32) {
	projectGo(dst, ldd, zpm, offs, groups, s, binarize, scale)
}
