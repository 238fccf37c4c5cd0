//go:build fhdnndebug

package tensor

import (
	"fmt"
	"unsafe"
)

// guardNoAlias panics if dst overlaps either input slice. It is the one
// check of the Into/Accum non-overlap contract, and it is exact: it
// compares the actual element ranges, so disjoint halves of one
// allocation pass and slices arriving through interfaces or reflection
// are still seen. Build with -tags fhdnndebug (make debugguard runs every
// package with a production call site that way) and any overlapping call
// fails loudly at the call site instead of silently reading half-written
// output. Release builds compile the stub in aliasguard_release.go
// instead, so the hot kernels pay nothing.
func guardNoAlias(op string, dst, s1, s2 []float32) {
	if overlaps(dst, s1) {
		panic(fmt.Sprintf("tensor: %s dst overlaps first input (dst %p len %d); Into/Accum kernels require non-overlapping buffers", op, unsafe.SliceData(dst), len(dst)))
	}
	if overlaps(dst, s2) {
		panic(fmt.Sprintf("tensor: %s dst overlaps second input (dst %p len %d); Into/Accum kernels require non-overlapping buffers", op, unsafe.SliceData(dst), len(dst)))
	}
}

// overlaps reports whether the element ranges of a and b intersect.
func overlaps(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const esz = unsafe.Sizeof(float32(0))
	alo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	ahi := alo + uintptr(len(a))*esz
	blo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	bhi := blo + uintptr(len(b))*esz
	return alo < bhi && blo < ahi
}
