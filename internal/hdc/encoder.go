// Package hdc implements hyperdimensional computing: random-projection
// encoding of feature vectors into high-dimensional (bipolar or real)
// hypervectors, bundling, a class-prototype classifier with one-shot
// training and iterative refinement, the bit-error quantizer of the FHDnn
// paper (Sec. 3.5.2), and linear decoding of noisy hypervectors (paper
// Eq. 5).
package hdc

import (
	"fmt"
	"math"
	"math/rand"

	"fhdnn/internal/tensor"
)

// Encoder embeds n-dimensional feature vectors into d-dimensional
// hyperspace under a random linear map Phi (d x n) whose rows are sampled
// uniformly from the unit sphere, following the paper's Sec. 3.3 (random
// projection encoding, after Imani et al., "BRIC", DAC'19).
//
// The encoder stores Phi once, as its n x d transpose, and every encode and
// decode is one GEMM over it on the blocked tensor kernels: H = Z Phi^T to
// encode, X = (n/d) H Phi to decode.
type Encoder struct {
	D, N int
	// phiT is Phi^T (n x d): column i is row i of Phi, with unit L2 norm.
	phiT *tensor.Tensor
	// Binarize selects sign(Phi z) (paper default) vs the raw projection
	// Phi z. The raw variant is kept for the ablation study.
	Binarize bool
}

// NewEncoder samples a fresh random projection. All clients and the server
// must share the same encoder; construct it from a common seed.
func NewEncoder(rng *rand.Rand, d, n int) *Encoder {
	if d <= 0 || n <= 0 {
		panic(fmt.Sprintf("hdc: invalid encoder dims d=%d n=%d", d, n))
	}
	e := &Encoder{D: d, N: n, phiT: tensor.New(n, d), Binarize: true}
	pt := e.phiT.Data()
	row := make([]float32, n)
	for i := 0; i < d; i++ {
		var norm float64
		for j := range row {
			v := rng.NormFloat64()
			row[j] = float32(v)
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			row[0] = 1
			norm = 1
		}
		// Row i of Phi, normalised, is column i of phiT.
		inv := float32(1 / norm)
		for j, v := range row {
			pt[j*d+i] = v * inv
		}
	}
	return e
}

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

// EncodeBatchInto encodes a [batch, n] feature matrix into dst ([batch, d])
// as one blocked matrix multiply H = Z Phi^T over the whole batch. Every
// element is one ascending-feature-index accumulator chain, so each row is
// bit-identical to encoding it alone, for every worker count.
//
//fhdnn:hotpath batch encode on the client training loop
func (e *Encoder) EncodeBatchInto(dst, z *tensor.Tensor) {
	if z.NumDims() != 2 || z.Dim(1) != e.N {
		panic(fmt.Sprintf("hdc: EncodeBatch expects [batch %d] features, got %v", e.N, z.Shape()))
	}
	tensor.MatMulInto(dst, z, e.phiT) // checks dst is [batch, d]
	if e.Binarize {
		signRows(dst.Data(), e.D)
	}
}

// signParallelCutoff is the number of elements below which signRows runs
// serially, just over 13 rows at d=10000: on a 2-core x86-64 VM, splitting
// fewer elements over the pool saved nothing, and from here on it wins.
const signParallelCutoff = 1 << 17

// signRows is Sign over a row-major matrix of rows of d entries. From
// signParallelCutoff elements on, with more than one worker, it splits
// the rows into blocks over the tensor pool; Sign is elementwise, so the
// bits are the same either way. The serial path creates no closure.
func signRows(h []float32, d int) {
	if tensor.Workers() <= 1 || len(h) < signParallelCutoff {
		Sign(h)
		return
	}
	tensor.ParallelFor(len(h)/d, func(lo, hi int) { Sign(h[lo*d : hi*d]) })
}

// Decode reconstructs an approximation of the original features from a
// (possibly noisy) real-valued hypervector, paper Eq. 5:
//
//	x ~= (n/d) Phi^T h
//
// The n/d factor corrects for E[Phi^T Phi] = (d/n) I when rows lie on the
// unit sphere (the paper's Eq. 5 absorbs this constant into its 1/d).
// Decoding averages the noise over all d dimensions, which is the
// information-dispersal property exploited in Sec. 3.5.1. Each feature is
// one ascending-hypervector-index accumulator chain.
func (e *Encoder) Decode(h []float32) []float32 {
	if len(h) != e.D {
		panic(fmt.Sprintf("hdc: Decode expects %d dims, got %d", e.D, len(h)))
	}
	x := tensor.MatMul(e.phiT, tensor.FromSlice(h, e.D, 1))
	x.Scale(float32(float64(e.N) / float64(e.D)))
	return x.Data()
}
