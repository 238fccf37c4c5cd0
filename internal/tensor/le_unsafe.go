//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package tensor

import (
	"io"
	"unsafe"
)

// On a little-endian host a []float32 already holds its wire bytes, so
// the conversions are one copy through a byte view of the float32s, and
// a read fills the float32s in place. This is the module's only unsafe
// outside the fhdnndebug aliasing guard. The build constraint lists
// exactly the little-endian GOARCHes; every other host (s390x, ppc64,
// mips, mips64) builds le_other.go, where the view would put the bytes of
// each value in the wrong order.

func putFloat32s(dst []byte, src []float32) { copy(dst, float32Bytes(src)) }

func getFloat32s(dst []float32, src []byte) { copy(float32Bytes(dst), src) }

func readFloat32s(r io.Reader, dst []float32) error {
	_, err := io.ReadFull(r, float32Bytes(dst))
	return err
}

// float32Bytes views s as its 4*len(s) in-memory bytes. A byte view
// needs no alignment, and the caller never keeps it past the copy or the
// read.
func float32Bytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}
