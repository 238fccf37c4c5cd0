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
// and n each take values that are not multiples of the 4x16 tile.
var packShapes = [][3]int{
	{4, 64, 64},    // minimum row count for packing
	{64, 64, 64},   // everything a multiple of the tiles
	{61, 67, 59},   // odd everywhere
	{33, 129, 5},   // n below one strip
	{7, 31, 130},   // wide n with a 2-column tail strip
	{127, 4, 97},   // short k
	{5, 257, 33},   // one leftover row, k tail of 1
	{128, 33, 127}, // n one short of eight strips
	{5, 40, 255},   // one panel, last strip one column short
	{4, 40, 256},   // exactly one panel
	{6, 40, 257},   // second panel of one column
	{9, 24, 1100},  // five panels: more than 1..4 workers, fewer than 8
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

// TestPackPanelLayout pins the scratch layout for both B layouts:
// strip-major, pk[(s*k+kk)*16+jj] = B(kk, j0+s*16+jj), with the columns
// past the panel's last one zero.
func TestPackPanelLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {16, 7}, {17, 33}, {255, 2}, {300, 3}} {
		n, k := sh[0], sh[1]
		src := Randn(rng, 1, n*k).data
		for _, layout := range []struct {
			name   string
			rs, cs int
		}{{"B", n, 1}, {"B^T", 1, k}} {
			for j0 := 0; j0 < n; j0 += panelCols {
				cols := min(panelCols, n-j0)
				strips := (cols + tileN - 1) / tileN
				pk := Randn(rng, 1, strips*k*tileN).data // stale contents must be overwritten
				packPanel(pk, src, k, layout.rs, layout.cs, j0, cols)
				for s := 0; s < strips; s++ {
					for kk := 0; kk < k; kk++ {
						for jj := 0; jj < tileN; jj++ {
							var want float32
							if j := j0 + s*tileN + jj; j < n {
								want = src[kk*layout.rs+j*layout.cs]
							}
							if got := pk[(s*k+kk)*tileN+jj]; got != want {
								t.Fatalf("%s n=%d k=%d panel %d: strip %d row %d col %d = %v, want %v",
									layout.name, n, k, j0/panelCols, s, kk, jj, got, want)
							}
						}
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
