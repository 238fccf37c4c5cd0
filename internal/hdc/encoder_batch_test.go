package hdc

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	old := tensor.SetWorkers(n)
	t.Cleanup(func() { tensor.SetWorkers(old) })
}

// TestEncodeBatchMatchesEncodeBitExact verifies the batched encoder's
// contract: every row of EncodeBatch equals the per-sample Encode of that
// row bit for bit, for binarized and raw projections, at every worker
// count. This is what lets callers mix the two paths freely (e.g. clients
// encoding one sample at inference, batches in training).
func TestEncodeBatchMatchesEncodeBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, binarize := range []bool{true, false} {
		e := NewEncoder(rand.New(rand.NewSource(21)), 257, 33)
		e.Binarize = binarize
		z := tensor.Randn(rng, 1, 9, e.N)
		for _, w := range []int{1, 2, 3, 8} {
			old := tensor.SetWorkers(w)
			got := e.EncodeBatch(z)
			for s := 0; s < z.Dim(0); s++ {
				want := e.Encode(z.Data()[s*e.N : (s+1)*e.N])
				row := got.Data()[s*e.D : (s+1)*e.D]
				for i := range want {
					if math.Float32bits(row[i]) != math.Float32bits(want[i]) {
						t.Fatalf("binarize=%v workers=%d: row %d dim %d = %v, want %v",
							binarize, w, s, i, row[i], want[i])
					}
				}
			}
			tensor.SetWorkers(old)
		}
	}
}

func TestDecodeBatchMatchesDecode(t *testing.T) {
	e := NewEncoder(rand.New(rand.NewSource(22)), 301, 41)
	z := tensor.Randn(rand.New(rand.NewSource(23)), 1, 7, e.N)
	h := e.EncodeBatch(z) // bipolar: no zero components, so bits must match
	for _, w := range []int{1, 3, 8} {
		old := tensor.SetWorkers(w)
		got := e.DecodeBatch(h)
		for s := 0; s < h.Dim(0); s++ {
			want := e.Decode(h.Data()[s*e.D : (s+1)*e.D])
			row := got.Data()[s*e.N : (s+1)*e.N]
			for i := range want {
				if math.Float32bits(row[i]) != math.Float32bits(want[i]) {
					t.Fatalf("workers=%d: row %d feature %d = %v, want %v", w, s, i, row[i], want[i])
				}
			}
		}
		tensor.SetWorkers(old)
	}
}

func TestEncodeIntoDoesNotAllocateSerial(t *testing.T) {
	withWorkers(t, 1)
	e := NewEncoder(rand.New(rand.NewSource(24)), 512, 64)
	z := make([]float32, e.N)
	for i := range z {
		z[i] = float32(i%7) - 3
	}
	dst := make([]float32, e.D)
	if allocs := testing.AllocsPerRun(10, func() { e.EncodeInto(dst, z) }); allocs != 0 {
		t.Errorf("EncodeInto: %v allocs/op, want 0", allocs)
	}
	zb := tensor.FromSlice(make([]float32, 4*e.N), 4, e.N)
	out := tensor.New(4, e.D)
	if allocs := testing.AllocsPerRun(10, func() { e.EncodeBatchInto(out, zb) }); allocs != 0 {
		t.Errorf("EncodeBatchInto: %v allocs/op, want 0", allocs)
	}
}

// TestSerializedEncoderKeepsBatchedPath ensures deserialization rebuilds the
// transposed projection, so a restored encoder batch-encodes identically to
// the original.
func TestSerializedEncoderKeepsBatchedPath(t *testing.T) {
	e := NewEncoder(rand.New(rand.NewSource(25)), 129, 17)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.phiT == nil {
		t.Fatal("deserialized encoder has no transposed projection")
	}
	z := tensor.Randn(rand.New(rand.NewSource(26)), 1, 5, e.N)
	a, b := e.EncodeBatch(z), got.EncodeBatch(z)
	if !a.Equal(b, 0) {
		t.Fatal("deserialized encoder batch-encodes differently")
	}
}

// TestEncodeBatchLiteralEncoderFallback covers encoders assembled without a
// constructor (no transposed projection).
func TestEncodeBatchLiteralEncoderFallback(t *testing.T) {
	src := NewEncoder(rand.New(rand.NewSource(27)), 65, 13)
	lit := &Encoder{D: src.D, N: src.N, Phi: src.Phi, Binarize: true}
	z := tensor.Randn(rand.New(rand.NewSource(28)), 1, 3, src.N)
	if !lit.EncodeBatch(z).Equal(src.EncodeBatch(z), 0) {
		t.Fatal("fallback batch encode diverged from batched path")
	}
}
