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
//
// Two gc-specific constraints shape the code: 16 float32 accumulators spill
// on amd64 (16 XMM registers shared with operand streams), so tiles keep at
// most 8 accumulators live; and per-element slice indexing emits a bounds
// check per load, so all 4-wide windows go through (*[4]float32) array
// pointers — one check per window, none per element.

const (
	// parallelCutoff is the approximate multiply-add count below which
	// dispatching to the worker pool costs more than it saves.
	parallelCutoff = 32 * 1024

	tileM     = 4   // rows of C per microkernel call
	tileN     = 16  // columns of C per call: one packed strip
	panelCols = 256 // columns of B per packed panel: 16 strips

	// transBPackCutoff and transBPackMinRows gate the packed path of
	// gemmTransB: below m*k*n = 16Ki multiply-adds, or under 4 rows of A
	// (the m=1 case is a matrix-vector product in disguise), the pack
	// costs more than it saves and the 2x4-register-tile kernel runs.
	transBPackCutoff  = 16 * 1024
	transBPackMinRows = tileM
)

// gemm computes C = A*B, or C += A*B when accum. A is m x k and C is
// m x n, both row-major; B is k x n with element (kk, j) at
// b[kk*rs+j*cs], so (n, 1) reads a row-major B and (1, k) a row-major
// B^T. Every product goes through the one microkernel, tile4x16, over
// panels of B packed by gemmBlock. Workers own whole panels when there
// are at least as many panels as workers, whole 4-row blocks of C
// otherwise; neither split touches a chain.
func gemm(c, a, b []float32, m, k, n, rs, cs int, accum bool) {
	if m == 0 || n == 0 {
		return
	}
	panels := (n + panelCols - 1) / panelCols
	w := Workers()
	switch {
	case w <= 1 || m*n*k < parallelCutoff:
		gemmBlock(c, a, b, 0, m, 0, panels, k, n, rs, cs, accum)
	case panels >= w:
		ParallelFor(panels, func(lo, hi int) {
			gemmBlock(c, a, b, 0, m, lo, hi, k, n, rs, cs, accum)
		})
	default:
		ParallelFor((m+tileM-1)/tileM, func(lo, hi int) {
			gemmBlock(c, a, b, lo*tileM, min(hi*tileM, m), 0, panels, k, n, rs, cs, accum)
		})
	}
}

// gemmBlock computes rows [rlo, rhi) of panels [plo, phi) of C. It packs
// each panel once, then sweeps it with 4x16 tiles, row blocks outer and
// strips inner, so four rows of A stay in L1 while the strips stream
// from L2. A tile that overhangs C (rows past the last multiple of 4,
// columns past n) runs on scratch: a zero-padded copy of the leftover
// rows of A and one 4x16 tile of C, copied in and out.
func gemmBlock(c, a, b []float32, rlo, rhi, plo, phi, k, n, rs, cs int, accum bool) {
	pw := min(panelCols, (n+tileN-1)/tileN*tileN) * k
	buf := getPanelBuf(pw + tileM*k + tileM*tileN)
	guardNoAlias("gemm panel scratch", buf.data, a, b)
	guardNoAlias("gemm panel scratch", buf.data, c, nil)
	pk, ea, ec := buf.data[:pw], buf.data[pw:pw+tileM*k], buf.data[pw+tileM*k:]
	tail := rhi - (rhi-rlo)%tileM
	clear(ea)
	copy(ea, a[tail*k:rhi*k])
	for p := plo; p < phi; p++ {
		j0 := p * panelCols
		cols := min(panelCols, n-j0)
		packPanel(pk, b, k, rs, cs, j0, cols)
		for i := rlo; i < rhi; i += tileM {
			rows, ai := min(tileM, rhi-i), a[i*k:]
			if rows < tileM {
				ai = ea
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

// gemmTransB computes C = A*B^T: A is m x k, B is n x k (row j of B is
// column j of B^T), C is m x n. It backs Linear and Conv2D forward passes,
// input gradients, the contrastive loss and HD decoding. Above the size
// cutoff it is gemm reading B by strides (1, k); below it the 2x4 kernel
// runs. Both reduce every element by the same ascending-k chain, so the
// cutoff is purely a throughput knob.
func gemmTransB(c, a, b []float32, m, k, n int) {
	if m >= transBPackMinRows && m*n*k >= transBPackCutoff {
		gemm(c, a, b, m, k, n, 1, k, false)
		return
	}
	if Workers() <= 1 || m < 2 || m*n*k < parallelCutoff {
		gemmTransBRows(c, a, b, 0, m, k, n)
		return
	}
	ParallelFor(m, func(lo, hi int) {
		gemmTransBRows(c, a, b, lo, hi, k, n)
	})
}

// gemmTransBRows computes rows [rlo, rhi) of C = A*B^T with 2x4 register
// tiles (eight independent accumulator chains) and the k loop unrolled four
// wide through array pointers: the small-shape path of gemmTransB.
func gemmTransBRows(c, a, b []float32, rlo, rhi, k, n int) {
	i := rlo
	for ; i+2 <= rhi; i += 2 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				pa0 := (*[4]float32)(a0[kk:])
				pa1 := (*[4]float32)(a1[kk:])
				pb0 := (*[4]float32)(b0[kk:])
				pb1 := (*[4]float32)(b1[kk:])
				pb2 := (*[4]float32)(b2[kk:])
				pb3 := (*[4]float32)(b3[kk:])
				for t := 0; t < 4; t++ {
					bv0, bv1, bv2, bv3 := pb0[t], pb1[t], pb2[t], pb3[t]
					av := pa0[t]
					s00 += float32(av * bv0)
					s01 += float32(av * bv1)
					s02 += float32(av * bv2)
					s03 += float32(av * bv3)
					av = pa1[t]
					s10 += float32(av * bv0)
					s11 += float32(av * bv1)
					s12 += float32(av * bv2)
					s13 += float32(av * bv3)
				}
			}
			for ; kk < k; kk++ {
				bv0, bv1, bv2, bv3 := b0[kk], b1[kk], b2[kk], b3[kk]
				av := a0[kk]
				s00 += float32(av * bv0)
				s01 += float32(av * bv1)
				s02 += float32(av * bv2)
				s03 += float32(av * bv3)
				av = a1[kk]
				s10 += float32(av * bv0)
				s11 += float32(av * bv1)
				s12 += float32(av * bv2)
				s13 += float32(av * bv3)
			}
			cw0 := (*[4]float32)(c0[j:])
			cw1 := (*[4]float32)(c1[j:])
			cw0[0], cw0[1], cw0[2], cw0[3] = s00, s01, s02, s03
			cw1[0], cw1[1], cw1[2], cw1[3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s0, s1 float32
			for kk, bv := range brow {
				s0 += float32(a0[kk] * bv)
				s1 += float32(a1[kk] * bv)
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < rhi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float32
			for kk, av := range arow {
				s0 += float32(av * b0[kk])
				s1 += float32(av * b1[kk])
				s2 += float32(av * b2[kk])
				s3 += float32(av * b3[kk])
			}
			cw := (*[4]float32)(crow[j:])
			cw[0], cw[1], cw[2], cw[3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for kk, bv := range brow {
				s += float32(arow[kk] * bv)
			}
			crow[j] = s
		}
	}
}

// gemmTransA computes C = A^T*B (or += when accum): A is k x m, B is k x n,
// C is m x n. Used for weight gradients (grad^T * input). Both operands are
// read down their columns with row stride, so the kernel walks k in the
// outer tile loop and keeps eight accumulators live.
func gemmTransA(c, a, b []float32, m, k, n int, accum bool) {
	if Workers() <= 1 || m < 2 || m*n*k < parallelCutoff {
		gemmTransARows(c, a, b, 0, m, m, k, n, accum)
		return
	}
	ParallelFor(m, func(lo, hi int) {
		gemmTransARows(c, a, b, lo, hi, m, k, n, accum)
	})
}

func gemmTransARows(c, a, b []float32, rlo, rhi, m, k, n int, accum bool) {
	i := rlo
	for ; i+2 <= rhi; i += 2 {
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			if accum {
				cw0 := (*[4]float32)(c0[j:])
				cw1 := (*[4]float32)(c1[j:])
				s00, s01, s02, s03 = cw0[0], cw0[1], cw0[2], cw0[3]
				s10, s11, s12, s13 = cw1[0], cw1[1], cw1[2], cw1[3]
			}
			ai, bi := i, j
			for kk := 0; kk < k; kk++ {
				apair := (*[2]float32)(a[ai:])
				brow := (*[4]float32)(b[bi:])
				bv0, bv1, bv2, bv3 := brow[0], brow[1], brow[2], brow[3]
				av := apair[0]
				s00 += float32(av * bv0)
				s01 += float32(av * bv1)
				s02 += float32(av * bv2)
				s03 += float32(av * bv3)
				av = apair[1]
				s10 += float32(av * bv0)
				s11 += float32(av * bv1)
				s12 += float32(av * bv2)
				s13 += float32(av * bv3)
				ai += m
				bi += n
			}
			cw0 := (*[4]float32)(c0[j:])
			cw1 := (*[4]float32)(c1[j:])
			cw0[0], cw0[1], cw0[2], cw0[3] = s00, s01, s02, s03
			cw1[0], cw1[1], cw1[2], cw1[3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			var s0, s1 float32
			if accum {
				s0, s1 = c0[j], c1[j]
			}
			ai, bi := i, j
			for kk := 0; kk < k; kk++ {
				bv := b[bi]
				s0 += float32(a[ai+0] * bv)
				s1 += float32(a[ai+1] * bv)
				ai += m
				bi += n
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < rhi; i++ {
		crow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float32
			if accum {
				cw := (*[4]float32)(crow[j:])
				s0, s1, s2, s3 = cw[0], cw[1], cw[2], cw[3]
			}
			ai, bi := i, j
			for kk := 0; kk < k; kk++ {
				brow := (*[4]float32)(b[bi:])
				av := a[ai]
				s0 += float32(av * brow[0])
				s1 += float32(av * brow[1])
				s2 += float32(av * brow[2])
				s3 += float32(av * brow[3])
				ai += m
				bi += n
			}
			cw := (*[4]float32)(crow[j:])
			cw[0], cw[1], cw[2], cw[3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			var s float32
			if accum {
				s = crow[j]
			}
			ai, bi := i, j
			for kk := 0; kk < k; kk++ {
				s += float32(a[ai] * b[bi])
				ai += m
				bi += n
			}
			crow[j] = s
		}
	}
}
