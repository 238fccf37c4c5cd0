// Package hdc implements hyperdimensional computing: random-projection
// encoding of feature vectors into high-dimensional (bipolar or real)
// hypervectors, bundling/binding algebra, a class-prototype classifier with
// one-shot training and iterative refinement, the bit-error quantizer of the
// FHDnn paper (Sec. 3.5.2), and linear decoding of noisy hypervectors
// (paper Eq. 5).
package hdc

import (
	"fmt"
	"math"
	"math/rand"

	"fhdnn/internal/tensor"
)

// Encoder embeds n-dimensional feature vectors into d-dimensional
// hyperspace under a random linear map Phi whose rows are sampled uniformly
// from the unit sphere, following the paper's Sec. 3.3 (random projection
// encoding, after Imani et al., "BRIC", DAC'19).
//
// Alongside Phi (d x n) the encoder keeps a transposed copy (n x d) so
// batch encoding runs as a single streaming matrix multiply on the blocked
// tensor kernels; this doubles the projection's memory footprint. Phi must
// not be mutated after construction or the copies fall out of sync.
type Encoder struct {
	D, N int
	// Phi is d x n; rows have unit L2 norm.
	Phi *tensor.Tensor
	// phiT is the n x d transpose of Phi, laid out so EncodeBatch streams
	// it row-major.
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
	phi := tensor.New(d, n)
	for i := 0; i < d; i++ {
		row := phi.Data()[i*n : (i+1)*n]
		var norm float64
		for j := range row {
			v := rng.NormFloat64()
			row[j] = float32(v)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			row[0] = 1
			norm = 1
		}
		inv := float32(1 / norm)
		for j := range row {
			row[j] *= inv
		}
	}
	e := &Encoder{D: d, N: n, Phi: phi, Binarize: true}
	e.initDerived()
	return e
}

// initDerived (re)builds the transposed projection from Phi. It must be
// called after Phi is populated (construction, deserialization).
func (e *Encoder) initDerived() {
	pt := tensor.New(e.N, e.D)
	src, dst := e.Phi.Data(), pt.Data()
	for i := 0; i < e.D; i++ {
		row := src[i*e.N : (i+1)*e.N]
		for j, v := range row {
			dst[j*e.D+i] = v
		}
	}
	e.phiT = pt
}

// Encode maps features z to a hypervector h = sign(Phi z) (or Phi z when
// Binarize is off). The returned slice has length D.
func (e *Encoder) Encode(z []float32) []float32 {
	h := make([]float32, e.D)
	e.EncodeInto(h, z)
	return h
}

// EncodeInto encodes features z into dst, which must have length D. It
// performs no allocation when the tensor pool has a single worker.
//
//fhdnn:hotpath per-sample encode on the client training loop
func (e *Encoder) EncodeInto(dst, z []float32) {
	if len(z) != e.N {
		panic(fmt.Sprintf("hdc: Encode expects %d features, got %d", e.N, len(z)))
	}
	if len(dst) != e.D {
		panic(fmt.Sprintf("hdc: EncodeInto dst length %d, want %d", len(dst), e.D))
	}
	tensor.MatVecInto(dst, e.Phi, z)
	if e.Binarize {
		Sign(dst)
	}
}

// EncodeBatch encodes each row of a [batch, n] feature matrix, returning
// [batch, d].
func (e *Encoder) EncodeBatch(z *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(z.Dim(0), e.D)
	e.EncodeBatchInto(out, z)
	return out
}

// EncodeBatchInto encodes a [batch, n] feature matrix into dst ([batch, d])
// as one blocked matrix multiply H = Z Phi^T over the whole batch. The
// per-element reduction order matches Encode's (ascending feature index),
// so every row is bit-identical to encoding it alone, for every worker
// count.
//
//fhdnn:hotpath batch encode on the client training loop
func (e *Encoder) EncodeBatchInto(dst, z *tensor.Tensor) {
	if z.NumDims() != 2 || z.Dim(1) != e.N {
		panic(fmt.Sprintf("hdc: EncodeBatch expects [batch %d] features, got %v", e.N, z.Shape()))
	}
	b := z.Dim(0)
	if dst.NumDims() != 2 || dst.Dim(0) != b || dst.Dim(1) != e.D {
		panic(fmt.Sprintf("hdc: EncodeBatchInto dst shape %v, want [%d %d]", dst.Shape(), b, e.D))
	}
	if e.phiT == nil {
		// Encoder assembled without NewEncoder/ReadEncoder (struct
		// literal): fall back to per-row encoding.
		for s := 0; s < b; s++ {
			e.EncodeInto(dst.Data()[s*e.D:(s+1)*e.D], z.Data()[s*e.N:(s+1)*e.N])
		}
		return
	}
	tensor.MatMulInto(dst, z, e.phiT)
	if e.Binarize {
		Sign(dst.Data())
	}
}

// Decode reconstructs an approximation of the original features from a
// (possibly noisy) real-valued hypervector, paper Eq. 5:
//
//	x ~= (n/d) Phi^T h
//
// The n/d factor corrects for E[Phi^T Phi] = (d/n) I when rows lie on the
// unit sphere (the paper's Eq. 5 absorbs this constant into its 1/d).
// Decoding averages the noise over all d dimensions, which is the
// information-dispersal property exploited in Sec. 3.5.1.
func (e *Encoder) Decode(h []float32) []float32 {
	if len(h) != e.D {
		panic(fmt.Sprintf("hdc: Decode expects %d dims, got %d", e.D, len(h)))
	}
	x := tensor.MatVecTrans(e.Phi, h)
	scale := float32(float64(e.N) / float64(e.D))
	for i := range x {
		x[i] *= scale
	}
	return x
}

// DecodeBatch decodes each row of a [batch, d] hypervector matrix into
// [batch, n] features with one blocked matrix multiply, X = (n/d) H Phi.
// The reduction runs over ascending hypervector index exactly as Decode's
// does, so rows match per-vector Decode whenever no hypervector component
// is exactly zero (Decode skips zero components; the batched kernel does
// not).
func (e *Encoder) DecodeBatch(h *tensor.Tensor) *tensor.Tensor {
	if h.NumDims() != 2 || h.Dim(1) != e.D {
		panic(fmt.Sprintf("hdc: DecodeBatch expects [batch %d] dims, got %v", e.D, h.Shape()))
	}
	x := tensor.MatMul(h, e.Phi)
	scale := float32(float64(e.N) / float64(e.D))
	for i, v := range x.Data() {
		x.Data()[i] = v * scale
	}
	return x
}
