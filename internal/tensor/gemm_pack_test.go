package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property tests for the GEMM driver (gemm.go + pack.go). Every matrix
// entry point is one gemm call that differs only in the strides it reads
// A and B by, so one shape table drives all three layouts.

// gemmShapes has tails in every dimension (m, k and n off the 4x16 tile),
// one to three rows, n below one strip, k = 0, the panel edges, and shapes
// past the parallel cutoff with more panels than some worker counts and
// fewer than others, so both the panel split and the row split run.
var gemmShapes = [][3]int{
	{1, 7, 1}, {1, 512, 10}, {2, 3, 130}, {3, 5, 2}, {3, 4096, 2}, {2, 64, 9},
	{1, 0, 1}, {3, 0, 17}, {4, 0, 5}, {70, 0, 300},
	{4, 64, 64}, {64, 64, 64}, {61, 67, 59}, {33, 129, 5}, {7, 31, 130},
	{127, 4, 97}, {5, 257, 33}, {128, 33, 127}, {17, 23, 31}, {70, 3, 70},
	{5, 40, 255}, {4, 40, 256}, {6, 40, 257}, {9, 24, 1100},
}

// refGemm is the scalar chain every layout must match bit for bit:
// C(i, j) = s + sum_kk float32(A(i, kk) * B(kk, j)) in ascending kk, with
// s = C(i, j) when accum and +0 otherwise, A and B read by gemm's strides.
func refGemm(c, a, b []float32, m, k, n, ars, acs, brs, bcs int, accum bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			if accum {
				s = c[i*n+j]
			}
			for kk := 0; kk < k; kk++ {
				s += float32(a[i*ars+kk*acs] * b[kk*brs+j*bcs])
			}
			c[i*n+j] = s
		}
	}
}

// TestGEMMShapesBitIdenticalAcrossWorkers runs every shape through the
// plain, TransA and TransB layouts, overwriting and accumulating, at
// worker counts 1..8. With k = 0 the result is C zeroed, or C unchanged
// when accumulating.
func TestGEMMShapesBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, at := Randn(rng, 1, m, k), Randn(rng, 1, k, m)
		b, bt := Randn(rng, 1, k, n), Randn(rng, 1, n, k)
		seed := Randn(rng, 1, m, n)
		layouts := []struct {
			name               string
			a, b               *Tensor
			ars, acs, brs, bcs int
			into, accum        func(dst *Tensor)
		}{
			{"MatMul", a, b, k, 1, n, 1,
				func(d *Tensor) { MatMulInto(d, a, b) },
				func(d *Tensor) { MatMulAccum(d, a, b) }},
			{"MatMulTransA", at, b, 1, m, n, 1,
				func(d *Tensor) { MatMulTransAInto(d, at, b) },
				func(d *Tensor) { MatMulTransAAccum(d, at, b) }},
			// TransB has no exported Into or Accum; both run gemm directly.
			{"MatMulTransB", a, bt, k, 1, 1, k,
				func(d *Tensor) { gemm(d.data, a.data, bt.data, m, k, n, k, 1, 1, k, false) },
				func(d *Tensor) { gemm(d.data, a.data, bt.data, m, k, n, k, 1, 1, k, true) }},
		}
		for _, l := range layouts {
			for _, accum := range []bool{false, true} {
				want := seed.Clone()
				refGemm(want.data, l.a.data, l.b.data, m, k, n, l.ars, l.acs, l.brs, l.bcs, accum)
				run := l.into
				if accum {
					run = l.accum
				}
				for w := 1; w <= 8; w++ {
					old := SetWorkers(w)
					got := seed.Clone()
					run(got)
					SetWorkers(old)
					bitsEqual(t, fmt.Sprintf("%s %v accum=%v workers=%d", l.name, sh, accum, w), got.data, want.data)
				}
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

// TestPackedGEMMZeroAllocsSerial asserts the sync.Pool scratch makes the
// transposed layouts allocation-free in steady state on the serial path,
// including a shape with tails and a single row; the plain layout is
// covered by TestIntoKernelsDoNotAllocateSerial.
func TestPackedGEMMZeroAllocsSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; the 0 allocs/op contract is asserted in non-race runs")
	}
	withWorkers(t, 1)
	rng := rand.New(rand.NewSource(43))
	for _, sh := range [][3]int{{64, 64, 64}, {61, 67, 59}, {1, 512, 10}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, at := Randn(rng, 1, m, k), Randn(rng, 1, k, m)
		b, bt := Randn(rng, 1, k, n), Randn(rng, 1, n, k)
		dst := New(m, n)
		for name, fn := range map[string]func(){
			"MatMulTransAInto":  func() { MatMulTransAInto(dst, at, b) },
			"MatMulTransAAccum": func() { MatMulTransAAccum(dst, at, b) },
			"gemm TransB":       func() { gemm(dst.data, a.data, bt.data, m, k, n, k, 1, 1, k, false) },
		} {
			if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
				t.Errorf("%s %v: %v allocs/op, want 0", name, sh, allocs)
			}
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
		refGemm(dst.Data(), x.Data(), y.Data(), 256, 256, 256, 256, 1, 1, 256, false)
	}
}
