//go:build fhdnndebug

package tensor

import (
	"strings"
	"testing"
)

func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want message containing %q", r, want)
		}
	}()
	fn()
}

// TestGuardNoAliasMatMul checks the debug guard fires when dst shares
// backing storage with either MatMulInto input, and stays quiet on
// disjoint buffers.
func TestGuardNoAliasMatMul(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	mustPanicWith(t, "MatMulInto dst overlaps first input", func() {
		MatMulInto(a, a, b)
	})
	mustPanicWith(t, "MatMulInto dst overlaps second input", func() {
		MatMulInto(b, a, b)
	})

	// Disjoint halves of one allocation are legal: the guard checks
	// element-range overlap, not allocation identity.
	buf := make([]float32, 32)
	MatMulInto(FromSlice(buf[:16], 4, 4), FromSlice(buf[16:], 4, 4), b)
}

// TestGuardNoAliasTransAndAccum checks the guard on the transposed and
// accumulating matrix kernels, which gained guards alongside the packed
// TransB path: every Into/Accum entry point must refuse an aliased dst.
func TestGuardNoAliasTransAndAccum(t *testing.T) {
	a := New(8, 8)
	b := New(8, 8)
	cases := []struct {
		op string
		fn func(dst *Tensor)
	}{
		{"MatMulAccum", func(dst *Tensor) { MatMulAccum(dst, a, b) }},
		{"MatMulTransAInto", func(dst *Tensor) { MatMulTransAInto(dst, a, b) }},
		{"MatMulTransAAccum", func(dst *Tensor) { MatMulTransAAccum(dst, a, b) }},
	}
	for _, c := range cases {
		mustPanicWith(t, c.op+" dst overlaps first input", func() { c.fn(a) })
		mustPanicWith(t, c.op+" dst overlaps second input", func() { c.fn(b) })
		c.fn(New(8, 8)) // disjoint dst passes
	}
}

// TestGuardNoAliasPooling checks the guard on the pooling kernels: out
// overlapping img panics, disjoint halves of one allocation pass.
func TestGuardNoAliasPooling(t *testing.T) {
	// One 1x4x4 image pools 2x2/2 to four outputs; one 2x2x2 image
	// averages to two.
	buf := make([]float32, 20)
	mustPanicWith(t, "MaxPool2DInto dst overlaps first input", func() {
		MaxPool2DInto(buf[:16], 1, 4, 4, 2, 2, buf[12:16], nil)
	})
	MaxPool2DInto(buf[:16], 1, 4, 4, 2, 2, buf[16:20], nil)

	mustPanicWith(t, "GlobalAvgPoolInto dst overlaps first input", func() {
		GlobalAvgPoolInto(buf[:8], 2, 2, 2, buf[6:8])
	})
	GlobalAvgPoolInto(buf[:8], 2, 2, 2, buf[8:10])
}

// TestGuardPackScratchDisjoint drives every layout through gemm under the
// debug guard: the pool scratch must never overlap the operands or the
// destination, so a clean multiply is the assertion — the guard inside
// gemmBlock panics if packing ever hands out aliased scratch.
func TestGuardPackScratchDisjoint(t *testing.T) {
	a := New(64, 64)
	b := New(64, 64)
	dst := New(64, 64)
	MatMulInto(dst, a, b)
	MatMulTransAInto(dst, a, b)
	MatMulTransB(a, b)
}

// TestOverlapsRanges pins the raw range arithmetic, including the empty
// and adjacent cases.
func TestOverlapsRanges(t *testing.T) {
	base := make([]float32, 10)
	cases := []struct {
		name string
		a, b []float32
		want bool
	}{
		{"identical", base, base, true},
		{"contained", base, base[3:5], true},
		{"partial", base[:5], base[4:], true},
		{"adjacent", base[:5], base[5:], false},
		{"empty a", base[:0], base, false},
		{"empty b", base, base[5:5], false},
		{"distinct allocations", base, make([]float32, 10), false},
	}
	for _, c := range cases {
		if got := overlaps(c.a, c.b); got != c.want {
			t.Errorf("%s: overlaps = %v, want %v", c.name, got, c.want)
		}
	}
}
