package tensor

import "sync"

// Panel packing for gemm (gemm.go). gemmBlock copies each panel of B
// (panelCols columns) into pooled scratch, strip-major: [strip][k][16].
// The 16 columns the microkernel reads per k sit in one 64-byte row, a
// strip is k such rows, and a whole panel (512 KiB at k = 512) stays in
// L2 while every 4-row block of A sweeps it. The last strip of a panel
// is zero-padded. A block of A that is not four contiguous rows is
// copied the same way, into a row-major 4 x k block (packRows). The
// copies are pure data movement, so they cannot change bits, and the
// panels cost O(k*n) against O(m*k*n) compute.

// packPanel packs columns [j0, j0+cols) of B, whose element (kk, j) is
// b[kk*rs+j*cs], into pk: pk[(s*k+kk)*16+jj] = B(kk, j0+s*16+jj).
func packPanel(pk, b []float32, k, rs, cs, j0, cols int) {
	for kk := 0; kk < k; kk++ {
		for s := 0; s*tileN < cols; s++ {
			row := (*[tileN]float32)(pk[(s*k+kk)*tileN:])
			src, w := kk*rs+(j0+s*tileN)*cs, min(tileN, cols-s*tileN)
			if cs == 1 && w == tileN {
				*row = *(*[tileN]float32)(b[src:])
				continue
			}
			for jj := 0; jj < w; jj++ {
				row[jj] = b[src+jj*cs]
			}
			clear(row[w:])
		}
	}
}

// packRows copies rows [i, i+rows) of A, whose element (r, kk) is
// a[r*ars+kk*acs], into ea as row-major rows of k, and zeroes the rest of
// ea: the 4 x k block of A the microkernel reads.
func packRows(ea, a []float32, i, rows, k, ars, acs int) {
	for r := 0; r < rows; r++ {
		row, base := ea[r*k:r*k+k], (i+r)*ars
		for kk := range row {
			row[kk] = a[base+kk*acs]
		}
	}
	clear(ea[rows*k:])
}

// panelBuf wraps pooled scratch behind a stable pointer, so the Get/Put
// round trip moves one pointer and never re-boxes a slice header
// (Put(&local) would heap-allocate the header on every call).
type panelBuf struct {
	data []float32
}

var panelPool sync.Pool

// getPanelBuf returns pooled scratch of n elements. Steady state performs
// zero allocations; growth re-allocates the backing array and keeps it
// for later callers.
func getPanelBuf(n int) *panelBuf {
	pb, _ := panelPool.Get().(*panelBuf)
	if pb == nil {
		//fhdnn:allow hotalloc one-time pool miss; the wrapper is recycled for the life of the process
		pb = new(panelBuf)
	}
	if cap(pb.data) < n {
		//fhdnn:allow hotalloc panel scratch reuses its backing array across calls; growth amortizes out
		pb.data = make([]float32, n)
	}
	pb.data = pb.data[:n]
	return pb
}
