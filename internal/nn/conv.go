package nn

import (
	"fmt"
	"math/rand"

	"fhdnn/internal/tensor"
)

// gradBlock is the fixed accumulation grain for Conv2D weight gradients:
// samples are grouped into blocks of this many, each block accumulates into
// a private partial buffer, and the partials are reduced in ascending block
// order. Because the grain is a constant — not derived from the worker
// count — the floating-point summation order is the same no matter how
// tensor.ParallelFor distributes blocks, so weight gradients are
// bit-identical for every tensor.SetWorkers setting.
const gradBlock = 8

// Conv2D is a 2-D convolution over NCHW batches with square stride and
// zero padding. Weights are stored as [outC, inC*KH*KW] so the forward pass
// is a single matrix multiply against the im2row lowering of each image
// (the backward pass uses its transpose, im2col).
// Batches are split across the shared tensor worker pool
// (tensor.SetWorkers / FHDNN_WORKERS); outputs and all gradients are
// bit-identical for every pool size.
type Conv2D struct {
	InC, OutC int
	KH, KW    int
	Stride    int
	Pad       int
	UseBias   bool
	weight    *Param
	bias      *Param
	lastInput *tensor.Tensor
	lastGeom  tensor.ConvGeom
}

// NewConv2D constructs a convolution with He-initialized weights.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int, useBias bool) *Conv2D {
	fanIn := inC * k * k
	w := tensor.Randn(rng, kaimingStd(fanIn), outC, fanIn)
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad, UseBias: useBias,
		weight: NewParam(fmt.Sprintf("conv%dx%d_w", k, k), w, false),
	}
	if useBias {
		c.bias = NewParam("conv_b", tensor.New(outC), true)
	}
	return c
}

// Params returns the weight (and bias, if enabled).
func (c *Conv2D) Params() []*Param {
	if c.UseBias {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}

func (c *Conv2D) geom(x *tensor.Tensor) tensor.ConvGeom {
	if x.NumDims() != 4 {
		panic(fmt.Sprintf("nn: Conv2D expects NCHW input, got shape %v", x.Shape()))
	}
	if x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects %d input channels, got %d", c.InC, x.Dim(1)))
	}
	return tensor.ConvGeom{
		InC: c.InC, InH: x.Dim(2), InW: x.Dim(3),
		KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad,
	}
}

// Forward computes the convolution for a batch. Samples are distributed
// over the shared worker pool; every sample's output is written by exactly
// one goroutine through kernels that are themselves bit-deterministic, so
// the result does not depend on the pool size.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geom(x)
	n := x.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	out := tensor.New(n, c.OutC, outH, outW)
	colLen := g.ColLen()
	imgLen := g.InC * g.InH * g.InW
	outLen := c.OutC * outH * outW
	colRows := g.ColRows()
	tensor.ParallelFor(n, func(lo, hi int) {
		rows := getScratch(colLen)
		defer putScratch(rows)
		rowsT := tensor.FromSlice(rows, g.ColCols(), colRows)
		for s := lo; s < hi; s++ {
			g.Im2Row(x.Data()[s*imgLen:(s+1)*imgLen], rows)
			// out_s = W * rows : [outC, colCols] x [colCols, colRows], the
			// products and ascending-tap chains of W * col^T
			outMat := tensor.FromSlice(out.Data()[s*outLen:(s+1)*outLen], c.OutC, colRows)
			tensor.MatMulInto(outMat, c.weight.W, rowsT)
			if c.UseBias {
				plane := outH * outW
				base := s * outLen
				for oc := 0; oc < c.OutC; oc++ {
					b := c.bias.W.Data()[oc]
					seg := out.Data()[base+oc*plane : base+(oc+1)*plane]
					for i := range seg {
						seg[i] += b
					}
				}
			}
		}
	})
	if train {
		c.lastInput = x
		c.lastGeom = g
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input
// gradient. The im2col lowering is recomputed per sample rather than cached
// for the whole batch, trading CPU for memory. Input gradients are disjoint
// per-sample writes; weight gradients use fixed-grain block partials (see
// gradBlock), so both are bit-identical for every worker-pool size.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastInput == nil {
		panic("nn: Conv2D.Backward before Forward(train=true)")
	}
	g := c.lastGeom
	x := c.lastInput
	n := x.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	outLen := c.OutC * outH * outW
	imgLen := g.InC * g.InH * g.InW
	colLen := g.ColLen()
	colRows := g.ColRows()
	colCols := g.ColCols()
	gradIn := tensor.New(x.Shape()...)

	nb := (n + gradBlock - 1) / gradBlock
	partials := make([]*tensor.Tensor, nb)
	tensor.ParallelFor(nb, func(blo, bhi int) {
		col := getScratch(colLen)
		dCol := getScratch(colLen)
		defer putScratch(col)
		defer putScratch(dCol)
		colT := tensor.FromSlice(col, colRows, colCols)
		dColT := tensor.FromSlice(dCol, colRows, colCols)
		for bi := blo; bi < bhi; bi++ {
			dW := tensor.New(c.OutC, colCols)
			partials[bi] = dW
			hi := (bi + 1) * gradBlock
			if hi > n {
				hi = n
			}
			for s := bi * gradBlock; s < hi; s++ {
				img := x.Data()[s*imgLen : (s+1)*imgLen]
				g.Im2Col(img, col)
				gradMat := tensor.FromSlice(grad.Data()[s*outLen:(s+1)*outLen], c.OutC, colRows)
				// dW += gradMat [outC, colRows] * col [colRows, colCols]
				tensor.MatMulAccum(dW, gradMat, colT)
				// dCol = gradMat^T [colRows, outC] * W [outC, colCols]
				tensor.MatMulTransAInto(dColT, gradMat, c.weight.W)
				g.Col2Im(dCol, gradIn.Data()[s*imgLen:(s+1)*imgLen])
			}
		}
	})
	for _, p := range partials {
		c.weight.Grad.AddInPlace(p)
	}
	if c.UseBias {
		plane := outH * outW
		for s := 0; s < n; s++ {
			base := s * outLen
			for oc := 0; oc < c.OutC; oc++ {
				sum := float32(0)
				seg := grad.Data()[base+oc*plane : base+(oc+1)*plane]
				for _, v := range seg {
					sum += v
				}
				c.bias.Grad.Data()[oc] += sum
			}
		}
	}
	return gradIn
}
