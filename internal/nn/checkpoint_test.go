package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(
		NewConv2D(rng, 1, 4, 3, 1, 1, true),
		NewBatchNorm2D(4),
		&ReLU{},
		&Flatten{},
		NewLinear(rng, 4*8*8, 3),
	)
	// drive BN stats away from init so they are exercised too
	x := tensor.Randn(rng, 2, 4, 1, 8, 8)
	net.Forward(x, true)

	var buf bytes.Buffer
	if err := SaveParams(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	want := FlattenParams(net.Params())

	net2 := NewSequential(
		NewConv2D(rng, 1, 4, 3, 1, 1, true),
		NewBatchNorm2D(4),
		&ReLU{},
		&Flatten{},
		NewLinear(rng, 4*8*8, 3),
	)
	if err := LoadParams(&buf, net2.Params()); err != nil {
		t.Fatal(err)
	}
	got := FlattenParams(net2.Params())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoint mismatch at %d", i)
		}
	}
	// behavioural equality in eval mode (BN buffers restored)
	y1 := net.Forward(x, false)
	y2 := net2.Forward(x, false)
	if !y1.Equal(y2, 0) {
		t.Fatal("restored network behaves differently")
	}
}

func TestLoadParamsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewSequential(NewLinear(rng, 2, 2))
	if err := LoadParams(bytes.NewReader([]byte("NOPE0000")), net.Params()); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadParamsCountMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewSequential(NewLinear(rng, 2, 2))
	b := NewSequential(NewLinear(rng, 2, 2), NewLinear(rng, 2, 2))
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, b.Params()); err == nil {
		t.Fatal("expected error for parameter count mismatch")
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewSequential(NewLinear(rng, 2, 2))
	b := NewSequential(NewLinear(rng, 3, 3))
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, b.Params()); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestLoadParamsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(NewLinear(rng, 4, 4))
	var buf bytes.Buffer
	if err := SaveParams(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-3]
	if err := LoadParams(bytes.NewReader(data), net.Params()); err == nil {
		t.Fatal("expected error for truncated checkpoint")
	}
}

// TestLoadParamsFailureLeavesParamsUnchanged cuts a checkpoint inside its
// last parameter's payload: the earlier parameters, whose payloads are
// intact, must not be written by the failed load.
func TestLoadParamsFailureLeavesParamsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := NewSequential(NewLinear(rng, 4, 4), NewLinear(rng, 4, 3))
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := NewSequential(NewLinear(rng, 4, 4), NewLinear(rng, 4, 3))
	want := FlattenParams(dst.Params())
	if err := LoadParams(bytes.NewReader(buf.Bytes()[:buf.Len()-3]), dst.Params()); err == nil {
		t.Fatal("expected error for truncated checkpoint")
	}
	for i, v := range FlattenParams(dst.Params()) {
		if v != want[i] {
			t.Fatalf("weight %d changed by a failed load", i)
		}
	}
}

// FuzzScanParams drives arbitrary bytes through ScanParams. It must not
// panic. On success it must have read exactly the header, one length
// word per tensor and one payload word per value, and LoadParams must
// accept the same bytes into a model of the scanned shape.
func FuzzScanParams(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	if err := SaveParams(&buf, NewSequential(NewLinear(rng, 3, 2)).Params()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated payload
	f.Add(valid[:6])            // truncated count
	f.Add([]byte{})
	f.Add([]byte("FHDN"))
	f.Add([]byte("FHDM\x00\x00\x00\x00"))
	lying := append([]byte(nil), valid[:12]...)
	binary.LittleEndian.PutUint32(lying[8:], 1<<20) // claims 4 MiB
	f.Add(append(lying, make([]byte, 16)...))
	// Top bit set: int(uint32) is negative on 32-bit platforms.
	wrap := append([]byte(nil), valid[:8]...)
	binary.LittleEndian.PutUint32(wrap[4:], 0x80000000)
	f.Add(wrap)
	wrapLen := append([]byte(nil), valid[:12]...)
	binary.LittleEndian.PutUint32(wrapLen[8:], 0xfffffffe)
	f.Add(wrapLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		tensors, values, err := ScanParams(r)
		if err != nil {
			return
		}
		read := len(data) - r.Len()
		if tensors < 0 || values < 0 || int64(read) != 8+4*int64(tensors)+4*int64(values) {
			t.Fatalf("scanned %d tensors, %d values from %d bytes", tensors, values, read)
		}
		params := make([]*Param, tensors)
		off := 8
		for i := range params {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			params[i] = &Param{W: tensor.New(n)}
			off += 4 + 4*n
		}
		if err := LoadParams(bytes.NewReader(data), params); err != nil {
			t.Fatalf("ScanParams accepted %d tensors, LoadParams refused them: %v", tensors, err)
		}
	})
}

// TestSaveParamsFormatGolden pins the FHDN layout byte for byte: magic,
// little-endian uint32 count, then per parameter a uint32 length and its
// float32 bits in order. The bytes were recorded when SaveParams still
// converted one value at a time; LoadParams must read them back bit for
// bit, negative zero included.
func TestSaveParamsFormatGolden(t *testing.T) {
	const golden = "4648444e02000000030000000000803f000020c0cdcccc3d02000000000000809ec97f7f"
	params := []*Param{
		{Name: "w", W: tensor.FromSlice([]float32{1, -2.5, 0.1}, 3)},
		{Name: "b", W: tensor.FromSlice([]float32{float32(math.Copysign(0, -1)), 3.4e38}, 2)},
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("SaveParams wrote %s, want %s", got, golden)
	}
	back := []*Param{
		{Name: "w", W: tensor.New(3)},
		{Name: "b", W: tensor.New(2)},
	}
	if err := LoadParams(&buf, back); err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		for j, v := range p.W.Data() {
			if got := back[i].W.Data()[j]; math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("param %d value %d read back as %v, want %v", i, j, got, v)
			}
		}
	}
}
