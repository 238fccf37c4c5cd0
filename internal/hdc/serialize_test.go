package hdc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
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
	if !got.phiT.Equal(e.phiT, 0) {
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

// TestEncoderFormatGolden pins the FHDE format and what an encoder read
// back from it computes. The hashes were recorded when the encoder still
// stored Phi row-major and encoded through matrix-vector kernels: the
// bytes of WriteTo (d x n row-major on the wire) must not change, and an
// encoder restored from them must encode and decode bit-identically.
func TestEncoderFormatGolden(t *testing.T) {
	const (
		wireLen    = 4 + 8 + 1 + 4*257*33
		decodeHash = 0xacc86fe3b2ae4570
	)
	for _, c := range []struct {
		binarize     bool
		wire, encode uint64
	}{
		{true, 0xb316fdc71c7b6f97, 0x5a0c36151878f458},
		{false, 0x59993f60c5a00d20, 0xeccef7bdc93d8578},
	} {
		e := NewEncoder(rand.New(rand.NewSource(21)), 257, 33)
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
	enc := append(append([]byte(nil), encoderMagic[:]...), dims.Bytes()...)
	enc = append(enc, 0) // flag byte
	if _, err := ReadEncoder(bytes.NewReader(enc)); err == nil {
		t.Fatal("ReadEncoder accepted overflowing dims")
	}
}

func TestReadEncoderBadMagic(t *testing.T) {
	if _, err := ReadEncoder(bytes.NewReader([]byte("FHDM12345678"))); err == nil {
		t.Fatal("expected error for wrong kind")
	}
}
