package tensor

import (
	"math/rand"
	"testing"
)

// naiveMatMulInto replicates the pre-blocking kernel (i-k-j AXPY with a
// zero-skip) so the blocked kernels are benchmarked against a stable
// baseline.
func naiveMatMulInto(c, a, b []float32, m, k, n int) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
}

func benchOperands(b *testing.B, m, k, n int) (dst, x, y *Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return New(m, n), Randn(rng, 1, m, k), Randn(rng, 1, k, n)
}

func BenchmarkMatMulNaive256(b *testing.B) {
	dst, x, y := benchOperands(b, 256, 256, 256)
	b.SetBytes(3 * 256 * 256 * 4) // operand bytes per pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMatMulInto(dst.Data(), x.Data(), y.Data(), 256, 256, 256)
	}
}

func BenchmarkMatMulInto256(b *testing.B) {
	dst, x, y := benchOperands(b, 256, 256, 256)
	b.SetBytes(3 * 256 * 256 * 4) // operand bytes per pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMulTransAInto256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dst, x := New(256, 256), Randn(rng, 1, 256, 256)
	y := Randn(rng, 1, 256, 256)
	b.SetBytes(3 * 256 * 256 * 4) // operand bytes per pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(dst, x, y)
	}
}
