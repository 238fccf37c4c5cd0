package hdc

import "fhdnn/internal/tensor"

// projector is the widest projection kernel this CPU runs.
var projector = func() projectKernel {
	if tensor.HasAVX() {
		return avxProjector
	}
	return portableProjector
}()

const avxProjector projectKernel = 4

// project runs the kernel k names; the assembly kernel is called directly
// so that no argument escapes.
func (k projectKernel) project(dst []float32, ldd int, zpm []float32, offs []int32, groups, s int, binarize bool, scale float32) {
	if k == avxProjector {
		projectAVX(dst, ldd, zpm, offs, groups, s, binarize, scale)
		return
	}
	projectGo(dst, ldd, zpm, offs, groups, s, binarize, scale)
}

// projectAVX is projectGo in AVX: four rows of a group at a time, each in
// two YMM accumulators (samples 0-7 and 8-15), one VADDPS per non-zero and
// half block (never a multiply or FMA); the epilogue applies the sign
// (VCMPPS, then the sign bit where the compare fails OR'd into +1) or the
// scale, and transposes each 4 x 8 half into 16-byte stores. Nothing is
// bounds-checked: s >= 1, dst must reach 15*ldd + 16*groups entries, offs
// 16*s*groups, and every offset must lie in zpm.
//
//go:noescape
func projectAVX(dst []float32, ldd int, zpm []float32, offs []int32, groups, s int, binarize bool, scale float32)
