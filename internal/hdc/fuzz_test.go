package hdc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzReadModel ensures that arbitrary byte streams never panic the model
// deserializer — a client must survive a mangled /v1/model download and
// fhdnn-inspect a corrupt checkpoint.
func FuzzReadModel(f *testing.F) {
	// seed with a valid payload and a few mutations
	m := NewModel(2, 8)
	m.SetFlat([]float32{1, 2, 3, 4, 5, 6, 7, 8, -1, -2, -3, -4, -5, -6, -7, -8})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:4])
	f.Add([]byte("FHDM"))
	f.Add([]byte{})
	truncated := append([]byte(nil), valid[:len(valid)-1]...)
	f.Add(truncated)
	huge := append([]byte(nil), valid[:12]...)
	binary.LittleEndian.PutUint32(huge[4:], 1<<30) // implausible dims
	f.Add(huge)
	wrap := append([]byte(nil), valid[:12]...)
	binary.LittleEndian.PutUint32(wrap[4:], 1<<16) // k*d == 2^32: wraps a
	binary.LittleEndian.PutUint32(wrap[8:], 1<<16) // 32-bit int multiply
	f.Add(wrap)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if got.K <= 0 || got.D <= 0 || got.NumParams() != len(got.Flat()) {
			t.Fatalf("accepted inconsistent model %dx%d", got.K, got.D)
		}
	})
}

// FuzzReadEncoder mirrors FuzzReadModel for the encoder format.
func FuzzReadEncoder(f *testing.F) {
	e := NewEncoder(rand.New(rand.NewSource(1)), 4, 2)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("FHDE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadEncoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.D <= 0 || got.N <= 0 || got.phiT.Len() != got.D*got.N {
			t.Fatalf("accepted inconsistent encoder %dx%d", got.D, got.N)
		}
	})
}
