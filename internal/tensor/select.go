package tensor

import (
	"fmt"
	"math/bits"
	"slices"
)

// selectCutoff is the segment length at and below which Select stops
// partitioning and insertion-sorts what is left.
const selectCutoff = 16

// Select returns the keys of rank k-1 and rank k (0-based, ascending) of
// keys; below equals at when k is 0. It runs in expected linear time: a
// quickselect whose three-way partition ping-pongs between keys and
// scratch without a data-dependent branch, with a median-of-3 pivot, an
// insertion sort at 16 keys or fewer, and a sort fallback after
// 2*log2(n) passes that bounds the worst case at O(n log n).
//
// Both keys and scratch[:len(keys)] are clobbered. The result depends only
// on the multiset of keys, so a caller that maps values to order-preserving
// keys gets an order statistic independent of input order.
func Select(keys, scratch []uint32, k int) (below, at uint32) {
	n := len(keys)
	if k < 0 || k >= n || len(scratch) < n {
		panic(fmt.Sprintf("tensor: Select rank %d of %d keys with %d scratch", k, n, len(scratch)))
	}
	src, dst := keys, scratch[:n]
	lo, hi := 0, n // the keys of ranks [lo, hi) are src[lo:hi]
	haveBelow := false
	for budget := 2 * bits.Len(uint(n)); hi-lo > selectCutoff; budget-- {
		seg := src[lo:hi]
		if budget == 0 {
			slices.Sort(seg)
			return pickSorted(seg, k-lo, below, haveBelow)
		}
		p := median3(seg[0], seg[len(seg)/2], seg[len(seg)-1])
		out := dst[lo:hi]
		l, r := 0, len(out)-1
		for _, v := range seg {
			// Every key is written at both ends; only the end its
			// comparison selects advances, so a key equal to p is left
			// behind in the middle, to be overwritten or ignored.
			out[l] = v
			out[r] = v
			l += int((uint64(v) - uint64(p)) >> 63)
			r -= int((uint64(p) - uint64(v)) >> 63)
		}
		// out[:l] < p, out[r+1:] > p, and the ranks lo+l..lo+r hold p.
		switch {
		case k < lo+l:
			hi = lo + l
		case k > lo+r:
			lo += r + 1
			below, haveBelow = p, true
		case k > lo+l:
			return p, p
		case l > 0:
			return slices.Max(out[:l]), p
		case haveBelow:
			return below, p
		default:
			return p, p // k == 0
		}
		src, dst = dst, src
	}
	seg := src[lo:hi]
	for i := 1; i < len(seg); i++ {
		for j := i; j > 0 && seg[j] < seg[j-1]; j-- {
			seg[j], seg[j-1] = seg[j-1], seg[j]
		}
	}
	return pickSorted(seg, k-lo, below, haveBelow)
}

// pickSorted reads ranks k-1 and k off a sorted segment whose preceding
// ranks all hold keys at most below (when haveBelow is set; otherwise the
// segment starts at rank 0).
func pickSorted(seg []uint32, k int, below uint32, haveBelow bool) (uint32, uint32) {
	switch {
	case k > 0:
		return seg[k-1], seg[k]
	case haveBelow:
		return below, seg[0]
	}
	return seg[0], seg[0]
}

func median3(a, b, c uint32) uint32 {
	return max(min(a, b), min(max(a, b), c))
}
