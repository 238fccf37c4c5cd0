package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"fhdnn/internal/tensor"
)

// idxHeader appends an IDX uint8 header with the given dimensions.
func idxHeader(buf *bytes.Buffer, dims ...int) {
	buf.Write([]byte{0, 0, idxTypeUint8, byte(len(dims))})
	for _, d := range dims {
		buf.Write(binary.BigEndian.AppendUint32(nil, uint32(d)))
	}
}

// idxImages renders [n,1,h,w] images as an IDX stream, clamping values to
// [0,1] and scaling them to uint8.
func idxImages(x *tensor.Tensor) *bytes.Buffer {
	var buf bytes.Buffer
	idxHeader(&buf, x.Dim(0), x.Dim(2), x.Dim(3))
	for _, v := range x.Data() {
		buf.WriteByte(byte(float32(min(max(v, 0), 1)*255) + 0.5))
	}
	return &buf
}

// idxLabels renders labels in [0,255] as an IDX stream.
func idxLabels(labels []int) *bytes.Buffer {
	var buf bytes.Buffer
	idxHeader(&buf, len(labels))
	for _, l := range labels {
		buf.WriteByte(byte(l))
	}
	return &buf
}

func TestIDXRoundTrip(t *testing.T) {
	train, _ := GenerateImages(MNISTLike(8, 2, 1, 11))
	// normalize into [0,1] for the uint8 export
	x := train.X.Clone()
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range x.Data() {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for i, v := range x.Data() {
		x.Data()[i] = (v - lo) / (hi - lo)
	}

	got, err := LoadIDX(idxImages(x), idxLabels(train.Labels), "mnist", 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != train.Len() || got.X.Dim(2) != 8 {
		t.Fatalf("loaded %d examples, shape %v", got.Len(), got.X.Shape())
	}
	// uint8 quantization: within 1/255
	for i := range x.Data() {
		if math.Abs(float64(got.X.Data()[i]-x.Data()[i])) > 1.0/254 {
			t.Fatalf("pixel %d: %v vs %v", i, got.X.Data()[i], x.Data()[i])
		}
	}
	for i := range train.Labels {
		if got.Labels[i] != train.Labels[i] {
			t.Fatal("labels corrupted")
		}
	}
}

func TestIDXHeaderValidation(t *testing.T) {
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  {1, 2, 3, 4},
		"bad dtype":  {0, 0, 0x0D, 3},
		"wrong ndim": {0, 0, 0x08, 1},
	}
	for name, hdr := range cases {
		if _, err := ReadIDXImages(bytes.NewReader(hdr)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestIDXTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	idxHeader(&buf, 2, 4, 4)
	buf.Write(make([]byte, 5)) // 32 expected
	if _, err := ReadIDXImages(&buf); err == nil {
		t.Fatal("expected error for truncated pixels")
	}
}

func TestIDXLabelsOutOfRange(t *testing.T) {
	x, _ := GenerateImages(MNISTLike(8, 1, 1, 12))
	norm := x.X.Clone()
	for i := range norm.Data() {
		norm.Data()[i] = 0.5
	}
	if _, err := LoadIDX(idxImages(norm), idxLabels(x.Labels), "m", 3); err == nil {
		t.Fatal("labels >= numClasses must be rejected")
	}
}

func TestIDXCountMismatch(t *testing.T) {
	ds, _ := GenerateImages(MNISTLike(8, 1, 1, 13))
	norm := ds.X.Clone()
	for i := range norm.Data() {
		norm.Data()[i] = 0
	}
	if _, err := LoadIDX(idxImages(norm), idxLabels(ds.Labels[:3]), "m", 10); err == nil {
		t.Fatal("count mismatch must be rejected")
	}
}
