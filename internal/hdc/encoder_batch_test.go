package hdc

import (
	"bytes"
	"fmt"
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

// namedProjector is one projection kernel of this build. skip says why
// this host cannot run it ("" when it can).
type namedProjector struct {
	name string
	projectKernel
	skip string
}

// projectors lists every projection kernel of this build, the portable
// one last.
func projectors() []namedProjector {
	return append(archProjectors[:len(archProjectors):len(archProjectors)], namedProjector{"portable", portableProjector, ""})
}

// ternary expands the encoder's Phi into a dense d x n matrix of -1, 0
// and +1 (Phi without its 1/sqrt(S) scale), the form the oracles read.
func ternary(e *Encoder) [][]int8 {
	t := make([][]int8, e.D)
	for i := range t {
		t[i] = make([]int8, e.N)
		for k := 0; k < e.S; k++ {
			j, neg := e.entry(i, k)
			t[i][j] = 1
			if neg {
				t[i][j] = -1
			}
		}
	}
	return t
}

// oracleEncodeBatch is the naive dense reference encoder, a triple loop
// over [batch, n] features: h[b,i] is one ascending-j float32 chain from
// +0 over the non-zero entries of row i of Phi, adding z[b,j] or -z[b,j];
// then sign when Binarize is set, else the sum times 1/sqrt(S). It is also
// the naive baseline of BenchmarkEncodeBatchNaive.
func oracleEncodeBatch(e *Encoder, phi [][]int8, z, out *tensor.Tensor) {
	scale := float32(1 / math.Sqrt(float64(e.S)))
	for b := 0; b < z.Dim(0); b++ {
		row := z.Data()[b*e.N : (b+1)*e.N]
		h := out.Data()[b*e.D : (b+1)*e.D]
		for i := range h {
			var sum float32
			for j, v := range row {
				switch phi[i][j] {
				case 1:
					sum += v
				case -1:
					sum += -v
				}
			}
			h[i] = sum * scale
			if e.Binarize {
				h[i] = 1
				if !(sum >= 0) {
					h[i] = -1
				}
			}
		}
	}
}

// oracleDecode is the naive dense reference decoder: x[j] is one
// ascending-i float32 chain over the rows holding feature j, adding h[i]
// or -h[i], times n/(d*sqrt(S)).
func oracleDecode(e *Encoder, h []float32) []float32 {
	phi := ternary(e)
	c := float32(float64(e.N) / (float64(e.D) * math.Sqrt(float64(e.S))))
	x := make([]float32, e.N)
	for j := range x {
		var sum float32
		for i, v := range h {
			switch phi[i][j] {
			case 1:
				sum += v
			case -1:
				sum += -v
			}
		}
		x[j] = sum * c
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

// specialFeatures is a [batch, n] feature matrix of Gaussians with NaN,
// +-Inf, -0, +0 and subnormals mixed in, so some chains meet Inf - Inf and
// some carry a NaN. Its first rows are all +0, all -0 and all +Inf, so
// every output of theirs is an exact zero sum or a NaN from Inf - Inf.
func specialFeatures(rng *rand.Rand, batch, n int) *tensor.Tensor {
	z := tensor.Randn(rng, 1, batch, n)
	for b, v := range []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1))} {
		if b < batch {
			for j := range n {
				z.Data()[b*n+j] = v
			}
		}
	}
	for i, x := range z.Data()[min(3, batch)*n:] {
		i += min(3, batch) * n
		switch rng.Intn(40) {
		case 0:
			z.Data()[i] = float32(math.NaN())
		case 1:
			z.Data()[i] = float32(math.Inf(1))
		case 2:
			z.Data()[i] = float32(math.Inf(-1))
		case 3:
			z.Data()[i] = float32(math.Copysign(0, -1))
		case 4:
			z.Data()[i] = 0
		case 5:
			z.Data()[i] = math.SmallestNonzeroFloat32 * x
		}
	}
	return z
}

func floatBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// sameBitsOrNaN is floatBitsEqual, except that any NaN matches any NaN.
// Which NaN a chain carries when two NaNs meet depends on the operand
// order of the add, and gc may commute a float add, so a raw projection
// promises NaN there, not its bits. The binarized projection maps every
// NaN to -1, so its bits are exact.
func sameBitsOrNaN(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i, w := range want {
		if g := got[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// TestProjectKernelsMatchOracle holds every projection kernel this host
// runs to the dense oracle bit for bit: batches that fill no block, one,
// and one plus a sample, up to 5 000 rows; n from 4 to 16 (where the
// non-zero floor makes Phi dense) and 512; d that fills its last group of
// 16 rows or not; binarized and raw; NaN, +-Inf and -0 features; and
// every worker count.
func TestProjectKernelsMatchOracle(t *testing.T) {
	type shape struct{ batch, n, d int }
	var shapes []shape
	for _, batch := range []int{1, 15, 16, 17, 64} {
		for _, n := range []int{4, 5, 7, 8, 9, 12, 16, 512} {
			shapes = append(shapes, shape{batch, n, 16*((batch+n)%5) + 3 + n%2*13})
		}
	}
	shapes = append(shapes, shape{5000, 512, 33}, shape{5000, 13, 48})
	rng := rand.New(rand.NewSource(20))
	for _, sh := range shapes {
		e := NewEncoder(rand.New(rand.NewSource(int64(sh.d*1000+sh.n))), sh.d, sh.n)
		phi := ternary(e)
		z := specialFeatures(rng, sh.batch, sh.n)
		for _, binarize := range []bool{true, false} {
			e.Binarize = binarize
			want := tensor.New(sh.batch, e.D)
			oracleEncodeBatch(e, phi, z, want)
			for _, k := range projectors() {
				if k.skip != "" {
					t.Logf("%s: skipped: %s", k.name, k.skip)
					continue
				}
				for _, w := range []int{1, 2, 3, 8} {
					withWorkers(t, w)
					got := tensor.New(sh.batch, e.D)
					for i := range got.Data() {
						got.Data()[i] = 7 // every element must be written
					}
					e.encodeWith(k.projectKernel, got.Data(), z.Data())
					sameBitsOrNaN(t, fmt.Sprintf("%s batch=%d n=%d d=%d binarize=%v workers=%d",
						k.name, sh.batch, sh.n, sh.d, binarize, w), got.Data(), want.Data())
				}
			}
		}
	}
}

// TestProjectKernelsSign pins every kernel's sign epilogue on the values
// where a sign test can differ from x >= 0: zeros of both signs, NaN,
// infinities, subnormals and the largest finite values. Each is the lone
// feature of an n = 1 encoder, whose rows add x or -x.
func TestProjectKernelsSign(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	sub := float32(math.SmallestNonzeroFloat32)
	e := NewEncoder(rand.New(rand.NewSource(1)), 40, 1)
	for _, x := range []float32{0.5, -0.1, 0, negZero, nan, -nan, float32(math.Inf(1)), float32(math.Inf(-1)),
		sub, -sub, math.MaxFloat32, -math.MaxFloat32} {
		for _, k := range projectors() {
			if k.skip != "" {
				continue
			}
			h := make([]float32, e.D)
			e.encodeWith(k.projectKernel, h, []float32{x})
			for i, got := range h {
				v := x
				if _, neg := e.entry(i, 0); neg {
					v = -x
				}
				want := float32(1)
				if !(0+v >= 0) {
					want = -1
				}
				if got != want {
					t.Errorf("%s: row %d of x=%v: %v, want %v", k.name, i, x, got, want)
				}
			}
		}
	}
}

// TestEncodeBatchMatchesEncodeBitExact verifies the encoder's contract:
// EncodeBatch and the per-sample Encode of every row equal the oracle bit
// for bit, for binarized and raw projections, at every worker count. This
// is what lets callers mix the two paths freely (e.g. clients encoding one
// sample at inference, batches in training).
func TestEncodeBatchMatchesEncodeBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const d = 257
	for _, binarize := range []bool{true, false} {
		e := NewEncoder(rand.New(rand.NewSource(21)), d, 33)
		e.Binarize = binarize
		z := tensor.Randn(rng, 1, 41, e.N)
		want := tensor.New(z.Dim(0), e.D)
		oracleEncodeBatch(e, ternary(e), z, want)
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

// TestDecodeMatchesScalarOracle pins Decode to the dense oracle bit for
// bit on hypervectors with zero, negative-zero and subnormal components,
// at every worker count.
func TestDecodeMatchesScalarOracle(t *testing.T) {
	for _, dims := range [][2]int{{301, 41}, {257, 33}, {8, 300}, {1, 1}, {64, 4}} {
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
	// pool miss costs the scratch wrapper plus its backing array.
	want := 0.0
	if raceEnabled {
		want = 2
	}
	if allocs := testing.AllocsPerRun(10, func() { e.EncodeBatchInto(out, zb) }); allocs > want {
		t.Errorf("EncodeBatchInto: %v allocs/op, want <= %v", allocs, want)
	}
}

// TestSerializedEncoderKeepsBatchedPath ensures deserialization rebuilds
// the kernel plan, so a restored encoder batch-encodes identically to the
// original.
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
