package tensor

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"
)

// leCases returns float32 slices of lengths 0, 1, odd and even, holding
// the bit patterns a byte path can get wrong: NaN payloads (quiet and
// signaling, both signs), -0, subnormals, infinities, and random bits.
func leCases() [][]float32 {
	special := []uint32{
		0x00000000, 0x80000000, // +0, -0
		0x00000001, 0x807FFFFF, 0x00400000, // subnormals
		0x7F800000, 0xFF800000, // +-Inf
		0x7FC00000, 0xFFC00001, 0x7F800001, 0xFFBFFFFF, 0x7FFFFFFF, // NaN payloads
		0x3F800000, 0xC2F6E979, 0x7F7FFFFF, 0x00800000, // normals
	}
	rng := rand.New(rand.NewSource(1))
	var out [][]float32
	for _, n := range []int{0, 1, 2, 3, 7, 16, 17, 1001} {
		s := make([]float32, n)
		for i := range s {
			if i < len(special) && n > 3 {
				s[i] = math.Float32frombits(special[i])
			} else {
				s[i] = math.Float32frombits(rng.Uint32())
			}
		}
		out = append(out, s)
	}
	for _, b := range special {
		out = append(out, []float32{math.Float32frombits(b)})
	}
	return out
}

// TestFloat32sLoopLayout pins the portable loop, the reference for the
// copy path, to the little-endian layout byte by byte. It runs on every
// architecture, big-endian ones included.
func TestFloat32sLoopLayout(t *testing.T) {
	for _, src := range leCases() {
		want := make([]byte, 0, 4*len(src))
		for _, v := range src {
			b := math.Float32bits(v)
			want = append(want, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
		}
		got := make([]byte, 4*len(src))
		putFloat32sLoop(got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("putFloat32sLoop(%d values) = %x, want %x", len(src), got, want)
		}
		back := make([]float32, len(src))
		getFloat32sLoop(back, want)
		for i := range src {
			if math.Float32bits(back[i]) != math.Float32bits(src[i]) {
				t.Fatalf("getFloat32sLoop value %d = %#08x, want %#08x", i, math.Float32bits(back[i]), math.Float32bits(src[i]))
			}
		}
	}
}

// TestFloat32sMatchLoop holds PutFloat32s and GetFloat32s, the copy path
// on little-endian hosts, bit-exact to the loop.
func TestFloat32sMatchLoop(t *testing.T) {
	for _, src := range leCases() {
		got := make([]byte, 4*len(src))
		want := make([]byte, 4*len(src))
		PutFloat32s(got, src)
		putFloat32sLoop(want, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("PutFloat32s(%d values) = %x, want %x", len(src), got, want)
		}
		back := make([]float32, len(src))
		ref := make([]float32, len(src))
		GetFloat32s(back, want)
		getFloat32sLoop(ref, want)
		for i := range src {
			if g, w := math.Float32bits(back[i]), math.Float32bits(ref[i]); g != w || w != math.Float32bits(src[i]) {
				t.Fatalf("GetFloat32s value %d = %#08x, loop %#08x, source %#08x", i, g, w, math.Float32bits(src[i]))
			}
		}
	}
}

// TestReadFloat32sMatchLoop holds ReadFloat32s, an in-place read on
// little-endian hosts, bit-exact to the portable loop, through one-byte
// reads as well as whole ones, and to the same errors on a short stream.
func TestReadFloat32sMatchLoop(t *testing.T) {
	for _, src := range leCases() {
		wire := make([]byte, 4*len(src))
		putFloat32sLoop(wire, src)
		readers := map[string]func([]byte) io.Reader{
			"whole":    func(b []byte) io.Reader { return bytes.NewReader(b) },
			"one byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		}
		for name, mk := range readers {
			got := make([]float32, len(src))
			ref := make([]float32, len(src))
			if err := ReadFloat32s(mk(wire), got); err != nil {
				t.Fatalf("%s: ReadFloat32s(%d values): %v", name, len(src), err)
			}
			if err := readFloat32sLoop(mk(wire), ref); err != nil {
				t.Fatalf("%s: readFloat32sLoop(%d values): %v", name, len(src), err)
			}
			for i := range src {
				if g, w := math.Float32bits(got[i]), math.Float32bits(ref[i]); g != w || w != math.Float32bits(src[i]) {
					t.Fatalf("%s: ReadFloat32s value %d = %#08x, loop %#08x, source %#08x", name, i, g, w, math.Float32bits(src[i]))
				}
			}
			if len(src) == 0 {
				continue
			}
			for _, cut := range []int{0, 1, len(wire) - 1} {
				err := ReadFloat32s(mk(wire[:cut]), make([]float32, len(src)))
				want := readFloat32sLoop(mk(wire[:cut]), make([]float32, len(src)))
				if err == nil || !errors.Is(err, want) {
					t.Fatalf("%s: %d of %d bytes: ReadFloat32s err %v, loop %v", name, cut, len(wire), err, want)
				}
			}
		}
	}
}

// TestFloat32sRejectLengthMismatch checks both directions panic on a
// byte buffer that is not exactly 4 bytes per value.
func TestFloat32sRejectLengthMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"put short": func() { PutFloat32s(make([]byte, 7), make([]float32, 2)) },
		"put long":  func() { PutFloat32s(make([]byte, 9), make([]float32, 2)) },
		"get short": func() { GetFloat32s(make([]float32, 2), make([]byte, 7)) },
		"get long":  func() { GetFloat32s(make([]float32, 2), make([]byte, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
