package hdc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"
)

// readModelOracle is ReadModel as it was before the one-read header and
// the in-place payload read: the magic and the dims in two reads, the
// payload through a scratch buffer. The tests hold ReadModel to its
// models and its error texts.
func readModelOracle(r io.Reader) (*Model, error) {
	var got [4]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return nil, fmt.Errorf("hdc: read model header: %w", err)
	}
	if got != modelMagic {
		return nil, fmt.Errorf("%w: %q", ErrModelMagic, got[:])
	}
	var dims [8]byte
	if _, err := io.ReadFull(r, dims[:]); err != nil {
		return nil, fmt.Errorf("hdc: read dims: %w", err)
	}
	k := int(int32(binary.LittleEndian.Uint32(dims[0:])))
	d := int(int32(binary.LittleEndian.Uint32(dims[4:])))
	if k <= 0 || d <= 0 || int64(k)*int64(d) > maxModelElems {
		return nil, fmt.Errorf("%w: %dx%d", ErrModelDims, k, d)
	}
	m := NewModel(k, d)
	buf := make([]byte, 4*k*d)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("hdc: read payload: %w", err)
	}
	for i := range m.Flat() {
		m.Flat()[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return m, nil
}

// TestReadModelMatchesOracle feeds ReadModel and the oracle every prefix
// of a model holding NaN payloads, -0, subnormals and infinities, plus
// bad magics and dims, whole and one byte per read: the same model bits
// or the same error text.
func TestReadModelMatchesOracle(t *testing.T) {
	m := NewModel(3, 5)
	for i, b := range []uint32{0x7FC00001, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F800000, 0xFF800000, 0x3F800000} {
		m.Flat()[i] = math.Float32frombits(b)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	var streams [][]byte
	for n := 0; n <= len(valid); n++ {
		streams = append(streams, valid[:n])
	}
	badMagic := append([]byte("FHDX"), valid[4:]...)
	streams = append(streams, badMagic, badMagic[:6], []byte("XXXX...."))
	for _, dims := range [][2]int32{{0, 5}, {3, -1}, {1 << 16, 1 << 16}, {1 << 13, 1 << 14}} {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[4:], uint32(dims[0]))
		binary.LittleEndian.PutUint32(b[8:], uint32(dims[1]))
		streams = append(streams, b)
	}
	readers := map[string]func([]byte) io.Reader{
		"whole":    func(b []byte) io.Reader { return bytes.NewReader(b) },
		"one byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	}
	for _, data := range streams {
		for name, mk := range readers {
			got, err := ReadModel(mk(data))
			want, werr := readModelOracle(mk(data))
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s, %d bytes %q...: err %v, oracle %v", name, len(data), data[:min(len(data), 12)], err, werr)
			}
			if err != nil {
				continue
			}
			if got.K != want.K || got.D != want.D {
				t.Fatalf("%s, %d bytes: dims %dx%d, oracle %dx%d", name, len(data), got.K, got.D, want.K, want.D)
			}
			for i, v := range want.Flat() {
				if math.Float32bits(got.Flat()[i]) != math.Float32bits(v) {
					t.Fatalf("%s: value %d = %#08x, oracle %#08x", name, i, math.Float32bits(got.Flat()[i]), math.Float32bits(v))
				}
			}
		}
	}
}

// TestReadModelAllocs pins a model read at four allocations — the header
// with the Model, the tensor, its shape and its storage — and, where the
// payload is read in place, at no payload-size scratch beside the
// model's own storage.
func TestReadModelAllocs(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewModel(10, 2048).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	read := func() {
		rd.Reset(buf.Bytes())
		if _, err := ReadModel(rd); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, read); allocs > 4 {
		t.Fatalf("ReadModel: %.1f allocs, want <= 4", allocs)
	}
	if !littleEndian() {
		t.Skip("big-endian hosts read the payload through a scratch buffer")
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	payload := uint64(4 * 10 * 2048)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > payload+payload/8 {
		t.Fatalf("ReadModel of a %d B payload allocates %d B: a payload-size scratch beside the model", payload, per)
	}
}

// littleEndian reports whether this host stores values in the wire byte
// order, the case tensor.ReadFloat32s reads in place.
func littleEndian() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 }
