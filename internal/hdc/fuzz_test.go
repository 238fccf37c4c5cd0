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

// FuzzReadEncoder mirrors FuzzReadModel for the encoder format. The
// seeds are valid v2 files (the small-n dense floor and a sparse n), each
// cut short, a dense v1 header, a row out of order, an index past n and a
// wrong non-zero count. An accepted file must hold a plan the kernels can
// run and must write back the bytes it was read from.
func FuzzReadEncoder(f *testing.F) {
	for _, dn := range [][2]int{{4, 2}, {19, 200}} {
		e := NewEncoder(rand.New(rand.NewSource(1)), dn[0], dn[1])
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(valid[:21])
		swapped := append([]byte(nil), valid...)
		swapped[21], swapped[23] = swapped[23], swapped[21] // row 0 out of order
		f.Add(swapped)
		big := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint16(big[21:], uint16(dn[1])) // index n
		f.Add(big)
		count := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(count[16:], 3)
		f.Add(count)
	}
	v1 := []byte("FHDE")
	v1 = binary.LittleEndian.AppendUint32(v1, 4)
	v1 = binary.LittleEndian.AppendUint32(v1, 2)
	f.Add(append(v1, 1, 0, 0, 0x80, 0x3f))
	f.Add([]byte("FHDE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadEncoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.D <= 0 || got.N <= 0 || got.S != nonZeros(got.N) ||
			len(got.offs) != (got.D+groupRows-1)/groupRows*got.S*groupRows {
			t.Fatalf("accepted inconsistent encoder d=%d n=%d s=%d", got.D, got.N, got.S)
		}
		for _, o := range got.offs {
			if o < 0 || o%laneBytes != 0 || int(o) >= 2*got.N*laneBytes {
				t.Fatalf("accepted plan offset %d outside the %d-feature block", o, got.N)
			}
		}
		var buf bytes.Buffer
		if _, err := got.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if n := buf.Len(); n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("accepted %d bytes that write back differently", len(data))
		}
	})
}
