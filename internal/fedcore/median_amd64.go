package fedcore

import "fhdnn/internal/tensor"

// medianBlockAVX512 selects ranks n/2-1 and n/2 of 16 coordinates at once,
// n = len(rows), one coordinate per lane. It reads rows[i][j0:j0+16] once
// per row, stores the order keys (orderKey, NaN to 0) row-major in
// blk[:16n], and runs the rank-k descent over that block, k = n/2: 32
// passes, each counting per lane the keys below a candidate prefix
// (VPCMPUD into a mask, a masked VPADDD) and keeping the candidate's bit
// where at most k are. out[16:] receives the rank-k keys. For even n, one
// more pass counts the keys below them and takes their VPMAXUD, and
// out[:16] receives the rank-(k-1) keys; for odd n it is left as is.
// Nothing is bounds-checked: n must be at least 1, every row must reach
// j0+16 and blk must hold 16n keys.
//
//go:noescape
func medianBlockAVX512(out *[2 * colBlock]uint32, rows [][]float32, j0 int, blk []uint32)

// medianBlock commits the median of the 16 coordinates j0.. of rows into
// dst with medianBlockAVX512, and reports false, having done nothing, on a
// CPU without AVX-512F. blk is scratch of at least 16*len(rows) keys.
func medianBlock(dst []float32, rows [][]float32, j0 int, blk []uint32) bool {
	if !tensor.HasAVX512() {
		return false
	}
	var keys [2 * colBlock]uint32
	medianBlockAVX512(&keys, rows, j0, blk[:colBlock*len(rows)])
	dst = dst[:colBlock]
	for jj := range dst {
		dst[jj] = medianOfRanks(keys[jj], keys[colBlock+jj], len(rows))
	}
	return true
}
