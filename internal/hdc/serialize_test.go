package hdc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fhdnn/internal/tensor"
)

func TestModelSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewModel(4, 128)
	for i := range m.Flat() {
		m.Flat()[i] = float32(rng.NormFloat64() * 10)
	}
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 4 || got.D != 128 {
		t.Fatalf("dims %dx%d", got.K, got.D)
	}
	if !got.Prototypes.Equal(m.Prototypes, 0) {
		t.Fatal("prototypes corrupted in round trip")
	}
}

func TestEncoderSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEncoder(rng, 256, 16)
	e.Binarize = false
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.D != e.D || got.N != e.N || got.Binarize != e.Binarize {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.S != e.S || !slices.Equal(got.offs, e.offs) {
		t.Fatal("projection corrupted in round trip")
	}
	// behavioural check: identical encodings
	z := make([]float32, 16)
	for i := range z {
		z[i] = float32(rng.NormFloat64())
	}
	a, b := e.Encode(z), got.Encode(z)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("deserialized encoder behaves differently")
		}
	}
}

// hashFloats is the FNV-1a hash of v's little-endian float32 bits.
func hashFloats(v []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestEncoderFormatGolden pins the FHDE v2 format and what an encoder read
// back from it computes: the bytes of WriteTo (header, d*s uint16 indices,
// packed signs) must not change, and an encoder restored from them must
// encode and decode bit-identically on every kernel. The hashes were
// recorded once, when Phi became sparse ternary, on amd64 (AVX) and
// 386 (the portable kernel) alike.
func TestEncoderFormatGolden(t *testing.T) {
	const (
		wireLen    = 21 + 2*257*32 + 257*32/8 // n = 40: s = 32
		decodeHash = 0x9e14d91c718b86a0
	)
	for _, c := range []struct {
		binarize     bool
		wire, encode uint64
	}{
		{true, 0xc99897c9671ba8ac, 0x8b6d85bb0281ee58},
		{false, 0x9856a65a2d89d74b, 0xf24548b6784d1a35},
	} {
		e := NewEncoder(rand.New(rand.NewSource(21)), 257, 40)
		e.Binarize = c.binarize
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if buf.Len() != wireLen || h.Sum64() != c.wire {
			t.Fatalf("binarize=%v: WriteTo %d bytes hash %#x, want %d bytes hash %#x",
				c.binarize, buf.Len(), h.Sum64(), wireLen, c.wire)
		}
		got, err := ReadEncoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		z := tensor.Randn(rand.New(rand.NewSource(22)), 1, 9, got.N)
		if hash := hashFloats(got.EncodeBatch(z).Data()); hash != c.encode {
			t.Errorf("binarize=%v: encode hash %#x, want %#x", c.binarize, hash, c.encode)
		}
		if hash := hashFloats(got.Decode(decodeInput(got.D))); hash != decodeHash {
			t.Errorf("binarize=%v: decode hash %#x, want %#x", c.binarize, hash, uint64(decodeHash))
		}
	}
}

func TestReadModelBadMagic(t *testing.T) {
	if _, err := ReadModel(bytes.NewReader([]byte("XXXX...."))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadModelTruncated(t *testing.T) {
	m := NewModel(2, 8)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadModel(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Fatal("expected error for truncated payload")
	}
}

func TestReadModelImplausibleDims(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(modelMagic[:])
	writeDims(&buf, -3, 10)
	if _, err := ReadModel(&buf); err == nil {
		t.Fatal("expected error for negative dims")
	}
}

func TestReadModelTypedErrors(t *testing.T) {
	if _, err := ReadModel(bytes.NewReader([]byte("XXXX12345678"))); !errors.Is(err, ErrModelMagic) {
		t.Fatalf("bad magic: error %v, want ErrModelMagic", err)
	}
	var buf bytes.Buffer
	buf.Write(modelMagic[:])
	if err := writeDims(&buf, -3, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModel(&buf); !errors.Is(err, ErrModelDims) {
		t.Fatalf("negative dims: error %v, want ErrModelDims", err)
	}
}

func TestDimProductOverflow(t *testing.T) {
	// k = d = 2^16: both dims individually plausible, but the element
	// product is 2^32 — which wraps to zero in a 32-bit int multiply and
	// would sail past the maxModelElems cap without the int64 check.
	var dims bytes.Buffer
	if err := writeDims(&dims, 1<<16, 1<<16); err != nil {
		t.Fatal(err)
	}
	model := append(append([]byte(nil), modelMagic[:]...), dims.Bytes()...)
	if _, err := ReadModel(bytes.NewReader(model)); !errors.Is(err, ErrModelDims) {
		t.Fatalf("ReadModel overflowing dims: err %v", err)
	}
	enc := binary.LittleEndian.AppendUint32(append([]byte(nil), encoderMagic[:]...), encoderVersion)
	enc = append(enc, dims.Bytes()...)
	enc = binary.LittleEndian.AppendUint32(enc, uint32(nonZeros(1<<16)))
	enc = append(enc, 0) // flag byte
	if _, err := ReadEncoder(bytes.NewReader(enc)); !errors.Is(err, ErrEncoderLayout) {
		t.Fatalf("ReadEncoder overflowing dims: err %v", err)
	}
}

// TestReadEncoderRefusesMalformed pins ReadEncoder's typed refusals: the
// dense v1 layout, an unknown version, a non-zero count other than
// NewEncoder's, an index >= n, a row out of order or with a repeat, and
// stray flag or padding bits. Every one must say why.
func TestReadEncoderRefusesMalformed(t *testing.T) {
	e := NewEncoder(rand.New(rand.NewSource(3)), 5, 40) // s = 32: 160 entries, no padding
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := bytes.Clone(buf.Bytes())
	if got, err := ReadEncoder(bytes.NewReader(valid)); err != nil || !slices.Equal(got.offs, e.offs) {
		t.Fatalf("valid file: %v", err)
	}
	odd := NewEncoder(rand.New(rand.NewSource(3)), 3, 331) // s = 34: 102 entries
	buf.Reset()
	if _, err := odd.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pad := append([]byte(nil), buf.Bytes()...)
	pad[len(pad)-1] |= 0x80

	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	v1 := binary.LittleEndian.AppendUint32(append([]byte(nil), encoderMagic[:]...), 5)
	v1 = append(binary.LittleEndian.AppendUint32(v1, 40), 1)
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"dense v1", v1, ErrEncoderVersion},
		{"version 3", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 1<<31|3) }), ErrEncoderVersion},
		{"count", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 15) }), ErrEncoderLayout},
		{"index n", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[21+2*31:], 40) }), ErrEncoderLayout},
		{"descending", mut(func(b []byte) { b[21], b[23] = b[23], b[21] }), ErrEncoderLayout},
		{"repeat", mut(func(b []byte) { copy(b[23:25], b[21:23]) }), ErrEncoderLayout},
		{"flags", mut(func(b []byte) { b[20] = 2 }), ErrEncoderLayout},
		{"padding", pad, ErrEncoderLayout},
	} {
		if _, err := ReadEncoder(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
	}
}

func TestReadEncoderBadMagic(t *testing.T) {
	if _, err := ReadEncoder(bytes.NewReader([]byte("FHDM12345678"))); err == nil {
		t.Fatal("expected error for wrong kind")
	}
}
