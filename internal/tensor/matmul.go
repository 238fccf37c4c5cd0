package tensor

import "fmt"

// The matrix kernels below are cache-blocked, register-tiled, and run on the
// shared worker pool (see parallel.go / gemm.go). Each is one gemm call that
// reads A and B by the strides of its layout. Every variant guarantees
// bit-identical results for any Workers() setting: each output element is
// reduced by a single serial accumulator chain in ascending k order, and
// worker boundaries only move whole output tiles between goroutines.

// MatMul computes C = A * B for 2-D tensors A (m x k) and B (k x n),
// returning a new m x n tensor.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	c := New(m, n)
	gemm(c.data, a.data, b.data, m, k, n, k, 1, n, 1, false)
	return c
}

// MatMulInto computes C = A*B, storing the result into dst (which must be
// m x n). Existing contents of dst are overwritten. It performs no
// allocation when the pool has a single worker
// (TestIntoKernelsDoNotAllocateSerial).
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := checkMatMul(a, b)
	checkDst("MatMulInto", dst, m, n)
	guardNoAlias("MatMulInto", dst.data, a.data, b.data)
	gemm(dst.data, a.data, b.data, m, k, n, k, 1, n, 1, false)
}

// MatMulAccum computes C += A*B into dst. It performs no allocation when
// the pool has a single worker (TestIntoKernelsDoNotAllocateSerial).
func MatMulAccum(dst, a, b *Tensor) {
	m, k, n := checkMatMul(a, b)
	checkDst("MatMulAccum", dst, m, n)
	guardNoAlias("MatMulAccum", dst.data, a.data, b.data)
	gemm(dst.data, a.data, b.data, m, k, n, k, 1, n, 1, true)
}

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if a.NumDims() != 2 || b.NumDims() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k = a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, b.Dim(0)))
	}
	return m, k, b.Dim(1)
}

func checkDst(op string, dst *Tensor, m, n int) {
	if dst.NumDims() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.shape, m, n))
	}
}

func checkMatMulTransA(a, b *Tensor) (m, k, n int) {
	if a.NumDims() != 2 || b.NumDims() != 2 {
		panic("tensor: MatMulTransA requires 2-D operands")
	}
	k, m = a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d vs %d", k, b.Dim(0)))
	}
	return m, k, b.Dim(1)
}

// MatMulTransAInto computes C = A^T * B into dst (m x n), overwriting it,
// where A is k x m and B is k x n. Used for weight gradients. It performs
// no allocation when the pool has a single worker
// (TestIntoKernelsDoNotAllocateSerial).
func MatMulTransAInto(dst, a, b *Tensor) {
	m, k, n := checkMatMulTransA(a, b)
	checkDst("MatMulTransAInto", dst, m, n)
	guardNoAlias("MatMulTransAInto", dst.data, a.data, b.data)
	gemm(dst.data, a.data, b.data, m, k, n, 1, m, n, 1, false)
}

// MatMulTransAAccum computes C += A^T * B into dst (m x n). It performs
// no allocation when the pool has a single worker
// (TestIntoKernelsDoNotAllocateSerial).
func MatMulTransAAccum(dst, a, b *Tensor) {
	m, k, n := checkMatMulTransA(a, b)
	checkDst("MatMulTransAAccum", dst, m, n)
	guardNoAlias("MatMulTransAAccum", dst.data, a.data, b.data)
	gemm(dst.data, a.data, b.data, m, k, n, 1, m, n, 1, true)
}

func checkMatMulTransB(a, b *Tensor) (m, k, n int) {
	if a.NumDims() != 2 || b.NumDims() != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	m, k = a.Dim(0), a.Dim(1)
	if b.Dim(1) != k {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d vs %d", k, b.Dim(1)))
	}
	return m, k, b.Dim(0)
}

// MatMulTransB computes C = A * B^T where A is m x k and B is n x k,
// producing m x n. Used by Linear's forward and the contrastive loss.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := checkMatMulTransB(a, b)
	c := New(m, n)
	gemm(c.data, a.data, b.data, m, k, n, k, 1, 1, k, false)
	return c
}
