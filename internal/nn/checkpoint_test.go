package nn

import (
	"bytes"
	"encoding/binary"
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
