package tensor

import (
	"math/rand"
	"testing"
)

// Property tests for the packed TransB kernel (pack.go + gemmTransB). The
// pack path only engages above transBPackCutoff with at least
// transBPackMinRows rows, so the shape lists below straddle the cutoff on
// purpose: every run exercises the scalar kernel, the packed kernel, and
// the handoff between them.

// packShapes all route through the packed path (m >= transBPackMinRows,
// m*k*n >= transBPackCutoff) and include tails in every dimension: m, k,
// and n each take values that are not multiples of the 4-wide tiles.
var packShapes = [][3]int{
	{4, 64, 64},    // minimum row count for packing
	{64, 64, 64},   // everything a multiple of the tiles
	{61, 67, 59},   // odd everywhere
	{33, 129, 5},   // n below one saxpyQuad window plus tail
	{7, 31, 130},   // wide n with a 2-element tail
	{127, 4, 97},   // k exactly one unroll step
	{5, 257, 33},   // k tail of 1 after 64 unrolled steps
	{128, 33, 127}, // packTile straddling: k and n just over/under 32
}

// scalarShapes stay below the packing thresholds and keep the legacy
// 2x4-register-tile kernel covered.
var scalarShapes = [][3]int{
	{1, 7, 1}, {3, 5, 2}, {2, 3, 130}, {17, 23, 31}, {70, 3, 70}, {3, 4096, 2},
}

func refTransBInto(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += float32(a[i*k+kk] * b[j*k+kk])
			}
			c[i*n+j] = s
		}
	}
}

// TestPackedTransBBitIdenticalAcrossWorkers pins the packed kernel's
// determinism contract for worker counts 1..8 against the scalar
// ascending-k reference chain.
func TestPackedTransBBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shapes := range [][][3]int{packShapes, scalarShapes} {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := Randn(rng, 1, m, k)
			bt := Randn(rng, 1, n, k)
			want := New(m, n)
			refTransBInto(want.data, a.data, bt.data, m, k, n)
			for w := 1; w <= 8; w++ {
				old := SetWorkers(w)
				got := New(m, n)
				MatMulTransBInto(got, a, bt)
				SetWorkers(old)
				bitsEqual(t, "MatMulTransBInto", got.data, want.data)
			}
		}
	}
}

// TestPackTransBLayout pins the scratch layout directly: bt[kk*n+j] must
// equal b[j*k+kk] for every element, for shapes around the packTile edge
// and at every worker count (the parallel pack owns disjoint kk bands).
func TestPackTransBLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {32, 32}, {31, 33}, {64, 65}, {130, 257}} {
		n, k := sh[0], sh[1]
		b := Randn(rng, 1, n, k)
		for _, w := range []int{1, 3, 8} {
			withWorkers(t, w)
			bt := make([]float32, k*n)
			packTransB(bt, b.data, k, n)
			for j := 0; j < n; j++ {
				for kk := 0; kk < k; kk++ {
					if bt[kk*n+j] != b.data[j*k+kk] {
						t.Fatalf("n=%d k=%d workers=%d: bt[%d,%d] = %v, want %v",
							n, k, w, kk, j, bt[kk*n+j], b.data[j*k+kk])
					}
				}
			}
		}
	}
}

// TestPackedTransBZeroAllocsSerial asserts the sync.Pool scratch makes the
// packed path allocation-free in steady state on the serial path,
// including a shape with tails.
func TestPackedTransBZeroAllocsSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; the 0 allocs/op contract is asserted in non-race runs")
	}
	withWorkers(t, 1)
	rng := rand.New(rand.NewSource(43))
	for _, sh := range [][3]int{{64, 64, 64}, {61, 67, 59}} {
		m, k, n := sh[0], sh[1], sh[2]
		if m*k*n < transBPackCutoff {
			t.Fatalf("shape %v does not reach the packed path", sh)
		}
		a := Randn(rng, 1, m, k)
		bt := Randn(rng, 1, n, k)
		dst := New(m, n)
		if allocs := testing.AllocsPerRun(10, func() { MatMulTransBInto(dst, a, bt) }); allocs != 0 {
			t.Errorf("packed MatMulTransBInto %v: %v allocs/op, want 0", sh, allocs)
		}
	}
}

// TestPackBufGrowsAndRecycles covers the pool wrapper: an undersized
// buffer is regrown, a big-enough one is reused as-is.
func TestPackBufGrowsAndRecycles(t *testing.T) {
	pb := getPackBuf(16)
	if cap(pb.data) < 16 {
		t.Fatalf("getPackBuf(16): cap %d", cap(pb.data))
	}
	pb.data = pb.data[:16]
	putPackBuf(pb)
	pb2 := getPackBuf(8)
	if cap(pb2.data) < 8 {
		t.Fatalf("getPackBuf(8) after put: cap %d", cap(pb2.data))
	}
	pb3 := getPackBuf(1 << 12)
	if cap(pb3.data) < 1<<12 {
		t.Fatalf("getPackBuf(4096): cap %d", cap(pb3.data))
	}
	putPackBuf(pb2)
	putPackBuf(pb3)
}

func BenchmarkMatMulTransBNaive256(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	dst, x := New(256, 256), Randn(rng, 1, 256, 256)
	y := Randn(rng, 1, 256, 256)
	b.SetBytes(3 * 256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refTransBInto(dst.Data(), x.Data(), y.Data(), 256, 256, 256)
	}
}
