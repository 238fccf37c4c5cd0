package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// PutFloat32s writes src into dst as little-endian IEEE-754 binary32, 4
// bytes per value, bit for bit (NaN payloads, -0 and subnormals
// included). This is the byte layout of every float32 on the wire and in
// checkpoints. len(dst) must be 4*len(src).
func PutFloat32s(dst []byte, src []float32) {
	if len(dst) != 4*len(src) {
		panic(fmt.Sprintf("tensor: PutFloat32s of %d values into %d bytes", len(src), len(dst)))
	}
	putFloat32s(dst, src)
}

// GetFloat32s reads dst from src, the inverse of PutFloat32s. len(src)
// must be 4*len(dst).
func GetFloat32s(dst []float32, src []byte) {
	if len(src) != 4*len(dst) {
		panic(fmt.Sprintf("tensor: GetFloat32s of %d values from %d bytes", len(dst), len(src)))
	}
	getFloat32s(dst, src)
}

// ReadFloat32s fills dst from r with exactly 4*len(dst) bytes in the
// PutFloat32s layout, with io.ReadFull's errors. Little-endian hosts read
// straight into dst's storage; other hosts read into a scratch buffer of
// the same size and convert. After an error dst holds unspecified values.
func ReadFloat32s(r io.Reader, dst []float32) error { return readFloat32s(r, dst) }

// putFloat32sLoop is the portable PutFloat32s: one value at a time,
// whatever the host's byte order. Little-endian hosts copy instead
// (le_unsafe.go); the loop is their test reference.
func putFloat32sLoop(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:4*i+4:4*i+4], math.Float32bits(v))
	}
}

// getFloat32sLoop is the portable GetFloat32s.
func getFloat32sLoop(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i : 4*i+4 : 4*i+4]))
	}
}

// readFloat32sLoop is the portable ReadFloat32s: read the bytes into a
// scratch buffer, then convert them one value at a time.
func readFloat32sLoop(r io.Reader, dst []float32) error {
	buf := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	getFloat32sLoop(dst, buf)
	return nil
}
