// Package hdc implements hyperdimensional computing: random-projection
// encoding of feature vectors into high-dimensional (bipolar or real)
// hypervectors, bundling, a class-prototype classifier with one-shot
// training and iterative refinement, the bit-error quantizer of the FHDnn
// paper (Sec. 3.3, 3.5.2), and linear decoding of noisy hypervectors
// (paper Eq. 5).
package hdc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"fhdnn/internal/tensor"
)

// Encoder embeds n-dimensional feature vectors into d-dimensional
// hyperspace under a random linear map Phi (d x n), following the paper's
// Sec. 3.3 (random projection encoding, after Imani et al., "BRIC",
// DAC'19). The paper samples Phi's rows uniformly from the unit sphere;
// this Phi is sparse ternary (Achlioptas 2001; Li, Hastie and Church
// 2006): every row has exactly S non-zeros, each +-1/sqrt(S), so every row
// still has unit norm and Phi preserves angles in the Johnson-Lindenstrauss
// sense. sign(Phi z) then needs no multiply: each output is a chain of
// +-z_j additions.
//
// Phi is stored as one kernel plan: for each group of 16 rows and each of
// the S non-zeros of those rows, the 16 rows' feature indices and signs as
// byte offsets into a block of 16 samples' features followed by their
// negations (see projectGo).
type Encoder struct {
	D, N int
	// S is the number of non-zeros in every row of Phi, nonZeros(N).
	S int
	// Binarize selects sign(Phi z) (paper default) vs the raw projection
	// Phi z. The raw variant is kept for the ablation study.
	Binarize bool
	// offs is the plan: offs[(g*S+k)*groupRows+r] is the byte offset, in a
	// [2N][blockLanes] float32 block, of the k-th non-zero of row
	// g*groupRows+r in ascending feature order: feature j at 64*j when its
	// sign is +, and at 64*(N+j) when it is -. The rows past D in the last
	// group point at offset 0; their results are never stored.
	offs []int32
}

const (
	// blockLanes is the number of samples one kernel call projects at a
	// time: two YMM registers of float32 lanes.
	blockLanes = 16
	// groupRows is the number of rows of Phi whose offsets interleave in
	// the plan, so that one 64-byte line of offs serves a group's rows at
	// one non-zero.
	groupRows = 16
	// laneBytes is the byte stride of one feature in a block.
	laneBytes = 4 * blockLanes
	// maxFeatures bounds N so that every index fits the uint16 of the
	// FHDE format.
	maxFeatures = 1 << 16
)

// nonZeros is the number of non-zeros in each row of Phi for n features:
// a tenth of them, rounded up, but at least 32, so every output mixes
// several features and an encoder of n <= 32 features is dense (+-1/sqrt(n)
// everywhere). The density is not a setting.
func nonZeros(n int) int {
	return min(max((n+9)/10, 32), n)
}

// NewEncoder samples a fresh random projection. All clients and the server
// must share the same encoder; construct it from a common seed. Each row
// draws its S feature indices by a partial Fisher-Yates shuffle, sorts
// them, and then draws one sign bit per index.
func NewEncoder(rng *rand.Rand, d, n int) *Encoder {
	if d <= 0 || n <= 0 || n > maxFeatures {
		panic(fmt.Sprintf("hdc: invalid encoder dims d=%d n=%d", d, n))
	}
	e := newPlan(d, n, nonZeros(n))
	perm := make([]int32, n)
	for j := range perm {
		perm[j] = int32(j)
	}
	row := make([]int32, e.S)
	var bits uint64
	left := 0
	for i := 0; i < d; i++ {
		for k := range row {
			t := k + rng.Intn(n-k)
			perm[k], perm[t] = perm[t], perm[k]
		}
		copy(row, perm[:e.S])
		slices.Sort(row)
		for k, j := range row {
			if left == 0 {
				bits, left = rng.Uint64(), 64
			}
			e.setEntry(i, k, int(j), bits&1 == 1)
			bits >>= 1
			left--
		}
	}
	return e
}

// newPlan returns an encoder of the given shape whose plan points every
// entry at offset 0, ready for setEntry.
func newPlan(d, n, s int) *Encoder {
	groups := (d + groupRows - 1) / groupRows
	return &Encoder{D: d, N: n, S: s, Binarize: true, offs: make([]int32, groups*s*groupRows)}
}

// setEntry records feature j, negated when neg, as the k-th non-zero of
// row i.
func (e *Encoder) setEntry(i, k, j int, neg bool) {
	if neg {
		j += e.N
	}
	e.offs[((i/groupRows)*e.S+k)*groupRows+i%groupRows] = int32(j * laneBytes)
}

// entry returns the k-th non-zero of row i: its feature index and whether
// its sign is negative.
func (e *Encoder) entry(i, k int) (j int, neg bool) {
	j = int(e.offs[((i/groupRows)*e.S+k)*groupRows+i%groupRows]) / laneBytes
	if j >= e.N {
		return j - e.N, true
	}
	return j, false
}

// scale is the magnitude 1/sqrt(S) of Phi's non-zeros.
func (e *Encoder) scale() float32 { return float32(1 / math.Sqrt(float64(e.S))) }

// Encode maps features z to a hypervector h = sign(Phi z) (or Phi z when
// Binarize is off): a one-row EncodeBatch. The returned slice has length D.
func (e *Encoder) Encode(z []float32) []float32 {
	return e.EncodeBatch(tensor.FromSlice(z, 1, len(z))).Data()
}

// EncodeBatch encodes each row of a [batch, n] feature matrix, returning
// [batch, d].
func (e *Encoder) EncodeBatch(z *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(z.Dim(0), e.D)
	e.EncodeBatchInto(out, z)
	return out
}

// EncodeBatchInto encodes a [batch, n] feature matrix into dst ([batch, d]).
// Element (b, i) is one float32 chain over row i's non-zeros in ascending
// feature order, starting from +0 and adding z[b,j] or -z[b,j] (negation
// is exact, so nothing is multiplied); then, with Binarize, +1 where the
// sum is >= 0 (-0 included) and -1 elsewhere (NaN included), the sign of
// the sum times the positive 1/sqrt(S); without it, the sum times
// 1/sqrt(S). The sign is taken before anything is stored. Each row is
// bit-identical to encoding it alone, for every kernel and worker count,
// except that a raw NaN output is some NaN: when two NaNs meet, the
// operand order of the add picks one, and gc may commute a float add.
// Blocks of 16 samples split over the tensor pool. At one worker it
// allocates nothing (TestEncodeBatchIntoDoesNotAllocateSerial).
func (e *Encoder) EncodeBatchInto(dst, z *tensor.Tensor) {
	if z.NumDims() != 2 || z.Dim(1) != e.N {
		panic(fmt.Sprintf("hdc: EncodeBatch expects [batch %d] features, got %v", e.N, z.Shape()))
	}
	batch := z.Dim(0)
	if dst.NumDims() != 2 || dst.Dim(0) != batch || dst.Dim(1) != e.D {
		panic(fmt.Sprintf("hdc: EncodeBatchInto dst %v, want [%d %d]", dst.Shape(), batch, e.D))
	}
	// The assembly kernels trust the plan's length and offsets; only
	// NewEncoder and ReadEncoder build one.
	if len(e.offs) != (e.D+groupRows-1)/groupRows*e.S*groupRows || e.S < 1 || e.S > e.N {
		panic("hdc: Encoder has no projection plan; build it with NewEncoder or ReadEncoder")
	}
	e.encodeWith(projector, dst.Data(), z.Data())
}

// encodeWith encodes the batch in z into h with kernel k. A serial call
// creates no closure.
func (e *Encoder) encodeWith(k projectKernel, h, z []float32) {
	blocks := (len(z)/e.N + blockLanes - 1) / blockLanes
	if tensor.Workers() <= 1 || blocks <= 1 {
		e.encodeBlocks(k, h, z, 0, blocks)
		return
	}
	tensor.ParallelFor(blocks, func(lo, hi int) { e.encodeBlocks(k, h, z, lo, hi) })
}

// projectKernel names a projection kernel; every one computes projectGo's
// result bit for bit.
type projectKernel int

const portableProjector projectKernel = 0

// projectScratch is one worker's block buffer: the tile, then the block.
// The tile, [blockLanes][tileCols], receives results that cannot be
// stored in place: a block with fewer than 16 samples, and the last group
// when D is not a multiple of 16. The block, [2N][blockLanes], holds each
// feature's 16 sample values, then their negations.
type projectScratch struct{ buf []float32 }

// tileCols is the column width of the tile.
const tileCols = 16 * groupRows

var projectPool = sync.Pool{New: func() any { return new(projectScratch) }}

// encodeBlocks projects sample blocks [lo, hi) of the batch in z into h
// with kernel k.
func (e *Encoder) encodeBlocks(k projectKernel, h, z []float32, lo, hi int) {
	sc := projectPool.Get().(*projectScratch)
	if need := blockLanes*tileCols + 2*e.N*blockLanes; cap(sc.buf) < need {
		sc.buf = make([]float32, need)
	}
	tile := sc.buf[:blockLanes*tileCols]
	zpm := sc.buf[len(tile) : len(tile)+2*e.N*blockLanes]
	n, d, s := e.N, e.D, e.S
	batch := len(z) / n
	neg := zpm[n*blockLanes:]
	for blk := lo; blk < hi; blk++ {
		b0 := blk * blockLanes
		nb := min(blockLanes, batch-b0)
		for b := 0; b < nb; b++ {
			for j, v := range z[(b0+b)*n : (b0+b+1)*n] {
				zpm[j*blockLanes+b] = v
				neg[j*blockLanes+b] = -v
			}
		}
		for b := nb; b < blockLanes; b++ {
			for j := 0; j < n; j++ {
				zpm[j*blockLanes+b] = 0
				neg[j*blockLanes+b] = 0
			}
		}
		g := 0
		if nb == blockLanes {
			// Full groups of a full block go straight to h.
			g = d / groupRows
			if g > 0 {
				k.project(h[b0*d:], d, zpm, e.offs, g, s, e.Binarize, e.scale())
			}
		}
		for groups := (d + groupRows - 1) / groupRows; g < groups; {
			ng := min(tileCols/groupRows, groups-g)
			k.project(tile, tileCols, zpm, e.offs[g*s*groupRows:], ng, s, e.Binarize, e.scale())
			c0 := g * groupRows
			cols := min(ng*groupRows, d-c0)
			for b := 0; b < nb; b++ {
				copy(h[(b0+b)*d+c0:(b0+b)*d+c0+cols], tile[b*tileCols:])
			}
			g += ng
		}
	}
	projectPool.Put(sc)
}

// projectGo is the portable projection kernel and the reference for the
// assembly ones. For g < groups, r < groupRows and b < blockLanes it sets
//
//	acc = +0; acc += zpm[offs[(g*s+k)*groupRows+r]/4 + b] for k = 0..s-1
//	dst[b*ldd + g*groupRows + r] = binarize ? (acc >= 0 ? +1 : -1) : acc*scale
//
// each acc one float32 chain in ascending k.
func projectGo(dst []float32, ldd int, zpm []float32, offs []int32, groups, s int, binarize bool, scale float32) {
	for g := 0; g < groups; g++ {
		o := offs[g*s*groupRows : (g+1)*s*groupRows]
		for r := 0; r < groupRows; r++ {
			var acc [blockLanes]float32
			for k := 0; k < s; k++ {
				off := int(o[k*groupRows+r]) / 4
				for b, v := range zpm[off : off+blockLanes] {
					acc[b] += v
				}
			}
			for b, a := range acc {
				v := a * scale
				if binarize {
					v = 1
					if !(a >= 0) {
						v = -1
					}
				}
				dst[b*ldd+g*groupRows+r] = v
			}
		}
	}
}

// Decode reconstructs an approximation of the original features from a
// (possibly noisy) real-valued hypervector, paper Eq. 5:
//
//	x ~= (n/d) Phi^T h
//
// The n/d factor corrects for E[Phi^T Phi] = (d/n) I when rows have unit
// norm (the paper's Eq. 5 absorbs this constant into its 1/d). Decoding
// averages the noise over all d dimensions, which is the
// information-dispersal property exploited in Sec. 3.5.1. Feature j is
// one float32 chain over the rows i that hold it, in ascending i, of +h[i]
// or -h[i] by the entry's sign, starting from +0, times
// n/(d*sqrt(S)) once at the end.
func (e *Encoder) Decode(h []float32) []float32 {
	if len(h) != e.D {
		panic(fmt.Sprintf("hdc: Decode expects %d dims, got %d", e.D, len(h)))
	}
	n := e.N
	x := make([]float32, n)
	for i, v := range h {
		vs := [2]float32{v, -v}
		o := e.offs[(i/groupRows)*e.S*groupRows+i%groupRows:]
		for k := 0; k < e.S; k++ {
			j := int(uint32(o[k*groupRows]) / laneBytes)
			neg := 0
			if j >= n {
				neg = 1
			}
			x[j-neg*n] += vs[neg]
		}
	}
	c := float32(float64(e.N) / (float64(e.D) * math.Sqrt(float64(e.S))))
	for j := range x {
		x[j] *= c
	}
	return x
}
