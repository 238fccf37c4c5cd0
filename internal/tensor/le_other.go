//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package tensor

import "io"

// Big-endian hosts convert one value at a time (see le_unsafe.go).

func putFloat32s(dst []byte, src []float32) { putFloat32sLoop(dst, src) }

func getFloat32s(dst []float32, src []byte) { getFloat32sLoop(dst, src) }

func readFloat32s(r io.Reader, dst []float32) error { return readFloat32sLoop(r, dst) }
