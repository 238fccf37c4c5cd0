package tensor

// GEMM kernels. Every output element is reduced by a single serial
// accumulator chain in ascending k order, started from +0 or from C. That
// is the determinism guarantee: the chain is the same whether an element
// is computed by the microkernel, an edge tile, or a different worker, so
// results are bit-identical to the naive triple loop for every worker
// count and every (m, n, k) shape. Multiplies are written as float32(a*b)
// — the explicit conversion forces IEEE rounding of the product, so
// implementations that would otherwise fuse multiply-add (e.g. arm64 FMA)
// produce the same bits as those that do not.

const (
	// parallelCutoff is the approximate multiply-add count below which
	// dispatching to the worker pool costs more than it saves.
	parallelCutoff = 32 * 1024

	tileM     = 4   // rows of C per microkernel call
	tileN     = 16  // columns of C per call: one packed strip
	panelCols = 256 // columns of B per packed panel: 16 strips
)

// gemm computes C = A*B, or C += A*B when accum. C is m x n, row-major.
// A is m x k with element (i, kk) at a[i*ars+kk*acs]: (k, 1) reads a
// row-major A and (1, m) a row-major A^T. B is k x n with element (kk, j)
// at b[kk*brs+j*bcs]: (n, 1) reads a row-major B and (1, k) a row-major
// B^T. Every product goes through the one microkernel, tile4x16, over
// panels of B packed by gemmBlock. Workers own whole panels when there
// are at least as many panels as workers, whole 4-row blocks of C
// otherwise; neither split touches a chain.
func gemm(c, a, b []float32, m, k, n, ars, acs, brs, bcs int, accum bool) {
	if m == 0 || n == 0 {
		return
	}
	panels := (n + panelCols - 1) / panelCols
	w := Workers()
	switch {
	case w <= 1 || m*n*k < parallelCutoff:
		gemmBlock(c, a, b, 0, m, 0, panels, k, n, ars, acs, brs, bcs, accum)
	case panels >= w:
		ParallelFor(panels, func(lo, hi int) {
			gemmBlock(c, a, b, 0, m, lo, hi, k, n, ars, acs, brs, bcs, accum)
		})
	default:
		ParallelFor((m+tileM-1)/tileM, func(lo, hi int) {
			gemmBlock(c, a, b, lo*tileM, min(hi*tileM, m), 0, panels, k, n, ars, acs, brs, bcs, accum)
		})
	}
}

// gemmBlock computes rows [rlo, rhi) of panels [plo, phi) of C. It packs
// each panel once, then sweeps it with 4x16 tiles, row blocks outer and
// strips inner, so four rows of A stay in L1 while the strips stream
// from L2. A block of A that is not four contiguous rows (any block of a
// transposed A, and the rows past the last multiple of 4) is first copied
// into a zero-padded 4 x k scratch, and a tile that overhangs C (those
// leftover rows, or columns past n) runs on one 4x16 scratch tile of C,
// copied in and out.
func gemmBlock(c, a, b []float32, rlo, rhi, plo, phi, k, n, ars, acs, brs, bcs int, accum bool) {
	pw := min(panelCols, (n+tileN-1)/tileN*tileN) * k
	buf := getPanelBuf(pw + tileM*k + tileM*tileN)
	guardNoAlias("gemm panel scratch", buf.data, a, b)
	guardNoAlias("gemm panel scratch", buf.data, c, nil)
	pk, ea, ec := buf.data[:pw], buf.data[pw:pw+tileM*k], buf.data[pw+tileM*k:]
	for p := plo; p < phi; p++ {
		j0 := p * panelCols
		cols := min(panelCols, n-j0)
		packPanel(pk, b, k, brs, bcs, j0, cols)
		for i := rlo; i < rhi; i += tileM {
			rows, ai := min(tileM, rhi-i), ea
			if rows == tileM && ars == k && acs == 1 {
				ai = a[i*k:]
			} else {
				packRows(ea, a, i, rows, k, ars, acs)
			}
			for s := 0; s*tileN < cols; s++ {
				j, w, bs := j0+s*tileN, min(tileN, cols-s*tileN), pk[s*k*tileN:]
				if rows == tileM && w == tileN {
					tile4x16(c[i*n+j:], n, ai, bs, k, accum)
					continue
				}
				for r := 0; r < rows; r++ {
					copy(ec[r*tileN:r*tileN+w], c[(i+r)*n+j:])
				}
				tile4x16(ec, tileN, ai, bs, k, accum)
				for r := 0; r < rows; r++ {
					copy(c[(i+r)*n+j:(i+r)*n+j+w], ec[r*tileN:])
				}
			}
		}
	}
	panelPool.Put(buf)
}
