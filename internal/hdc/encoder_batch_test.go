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

// oracleEncodeBatch is the scalar reference encoder, a triple loop over
// [batch, n] features: h[s,i] = sum_j Phi[i,j]*z[s,j] as one ascending-j
// float32 chain per element, then sign when Binarize is set. It is also
// the naive baseline of BenchmarkEncodeBatchNaive.
func oracleEncodeBatch(e *Encoder, z, out *tensor.Tensor) {
	pt := e.phiT.Data()
	for s := 0; s < z.Dim(0); s++ {
		row := z.Data()[s*e.N : (s+1)*e.N]
		h := out.Data()[s*e.D : (s+1)*e.D]
		for i := range h {
			var sum float32
			for j, v := range row {
				sum += float32(pt[j*e.D+i] * v)
			}
			h[i] = sum
		}
		if e.Binarize {
			Sign(h)
		}
	}
}

// oracleDecode is the scalar reference decoder: x[j] = (n/d) sum_i
// h[i]*Phi[i,j] as one ascending-i float32 chain per feature, zero terms
// included.
func oracleDecode(e *Encoder, h []float32) []float32 {
	pt := e.phiT.Data()
	scale := float32(float64(e.N) / float64(e.D))
	x := make([]float32, e.N)
	for j := range x {
		var sum float32
		for i, v := range h {
			sum += float32(v * pt[j*e.D+i])
		}
		x[j] = sum * scale
	}
	return x
}

// decodeInput is a real-valued hypervector with exact zeros, negative
// zeros and subnormals mixed into Gaussian components: the inputs on
// which a decoder that skips zero terms could drift from one that does
// not.
func decodeInput(d int) []float32 {
	rng := rand.New(rand.NewSource(23))
	h := make([]float32, d)
	for i := range h {
		h[i] = float32(rng.NormFloat64())
		switch {
		case i%5 == 0:
			h[i] = 0
		case i%7 == 0:
			h[i] = float32(math.Copysign(0, -1))
		case i%11 == 0:
			h[i] = math.SmallestNonzeroFloat32 * float32(i)
		}
	}
	return h
}

func floatBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestEncodeBatchMatchesEncodeBitExact verifies the encoder's contract:
// EncodeBatch and the per-sample Encode of every row equal the scalar
// oracle bit for bit, for binarized and raw projections, at every worker
// count. This is what lets callers mix the two paths freely (e.g. clients
// encoding one sample at inference, batches in training). The larger
// batch crosses signParallelCutoff, so the row-block sign runs too.
func TestEncodeBatchMatchesEncodeBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const d = 257
	for _, batch := range []int{9, signParallelCutoff/d + 1} {
		for _, binarize := range []bool{true, false} {
			e := NewEncoder(rand.New(rand.NewSource(21)), d, 33)
			e.Binarize = binarize
			z := tensor.Randn(rng, 1, batch, e.N)
			want := tensor.New(z.Dim(0), e.D)
			oracleEncodeBatch(e, z, want)
			for _, w := range []int{1, 2, 3, 8} {
				withWorkers(t, w)
				floatBitsEqual(t, "EncodeBatch", e.EncodeBatch(z).Data(), want.Data())
				for s := 0; s < z.Dim(0); s++ {
					floatBitsEqual(t, "Encode",
						e.Encode(z.Data()[s*e.N:(s+1)*e.N]), want.Data()[s*e.D:(s+1)*e.D])
				}
			}
		}
	}
}

// TestDecodeMatchesScalarOracle pins Decode to the scalar oracle bit for
// bit on hypervectors with zero, negative-zero and subnormal components,
// at every worker count.
func TestDecodeMatchesScalarOracle(t *testing.T) {
	for _, dims := range [][2]int{{301, 41}, {257, 33}, {8, 300}, {1, 1}} {
		e := NewEncoder(rand.New(rand.NewSource(22)), dims[0], dims[1])
		h := decodeInput(e.D)
		want := oracleDecode(e, h)
		for _, w := range []int{1, 3, 8} {
			withWorkers(t, w)
			floatBitsEqual(t, "Decode", e.Decode(h), want)
		}
	}
}

func TestEncodeBatchIntoDoesNotAllocateSerial(t *testing.T) {
	withWorkers(t, 1)
	e := NewEncoder(rand.New(rand.NewSource(24)), 512, 64)
	zb := tensor.FromSlice(make([]float32, 4*e.N), 4, e.N)
	out := tensor.New(4, e.D)
	// Under the race detector sync.Pool drops entries at random, and a
	// pool miss costs the panelBuf wrapper plus its backing array.
	want := 0.0
	if raceEnabled {
		want = 2
	}
	if allocs := testing.AllocsPerRun(10, func() { e.EncodeBatchInto(out, zb) }); allocs > want {
		t.Errorf("EncodeBatchInto: %v allocs/op, want <= %v", allocs, want)
	}
}

// TestSerializedEncoderKeepsBatchedPath ensures deserialization rebuilds
// the stored projection, so a restored encoder batch-encodes identically
// to the original.
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
	z := tensor.Randn(rand.New(rand.NewSource(26)), 1, 5, e.N)
	a, b := e.EncodeBatch(z), got.EncodeBatch(z)
	if !a.Equal(b, 0) {
		t.Fatal("deserialized encoder batch-encodes differently")
	}
}
