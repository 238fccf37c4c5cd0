package nn

import (
	"fmt"
	"math"

	"fhdnn/internal/tensor"
)

// BatchNorm2D normalizes each channel of NCHW batches over the batch and
// spatial dimensions, with learned affine parameters gamma/beta and running
// statistics for evaluation mode.
//
// The running mean and variance are exposed through Params() as non-
// trainable (zero-gradient, NoDecay) parameters. This matters for federated
// learning: FedAvg must transmit and average the BN buffers along with the
// weights, or the aggregated global model evaluates with stale statistics
// and its accuracy collapses as gamma/beta drift.
type BatchNorm2D struct {
	C        int
	Eps      float32
	Momentum float32 // running-stat update rate (new = (1-m)*old + m*batch)

	gamma, beta *Param
	rmean, rvar *Param

	// forward caches for backward
	lastXHat   *tensor.Tensor
	lastInvStd []float32
	lastShape  []int
}

// NewBatchNorm2D constructs a batch norm over c channels.
func NewBatchNorm2D(c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		gamma: NewParam("bn_gamma", tensor.Full(1, c), true),
		beta:  NewParam("bn_beta", tensor.New(c), true),
		rmean: NewParam("bn_rmean", tensor.New(c), true),
		rvar:  NewParam("bn_rvar", tensor.Full(1, c), true),
	}
	return bn
}

// Params returns gamma, beta, and the (non-trainable) running statistics.
// The running statistics receive no gradient, so optimizers leave them
// unchanged; they ride along so that parameter flattening captures the full
// module state.
func (bn *BatchNorm2D) Params() []*Param {
	return []*Param{bn.gamma, bn.beta, bn.rmean, bn.rvar}
}

// Forward normalizes per channel. In training mode batch statistics are used
// and folded into the running statistics; in eval mode the running
// statistics are used.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D expects NCHW with C=%d, got %v", bn.C, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	plane := h * w
	m := n * plane
	out := tensor.New(x.Shape()...)
	runningMean := bn.rmean.W.Data()
	runningVar := bn.rvar.W.Data()
	if train {
		xhat := tensor.New(x.Shape()...)
		invStd := make([]float32, bn.C)
		for c := 0; c < bn.C; c++ {
			// batch mean/var for channel c
			var sum, sumSq float64
			for s := 0; s < n; s++ {
				base := (s*bn.C + c) * plane
				for i := base; i < base+plane; i++ {
					v := float64(x.Data()[i])
					sum += v
					sumSq += float64(v * v)
				}
			}
			mean := sum / float64(m)
			variance := sumSq/float64(m) - float64(mean*mean)
			if variance < 0 {
				variance = 0
			}
			is := float32(1 / math.Sqrt(variance+float64(bn.Eps)))
			invStd[c] = is
			runningMean[c] = float32((1-bn.Momentum)*runningMean[c]) + float32(bn.Momentum*float32(mean))
			runningVar[c] = float32((1-bn.Momentum)*runningVar[c]) + float32(bn.Momentum*float32(variance))
			g, b := bn.gamma.W.Data()[c], bn.beta.W.Data()[c]
			mf := float32(mean)
			for s := 0; s < n; s++ {
				base := (s*bn.C + c) * plane
				for i := base; i < base+plane; i++ {
					xh := (x.Data()[i] - mf) * is
					xhat.Data()[i] = xh
					out.Data()[i] = float32(g*xh) + b
				}
			}
		}
		bn.lastXHat = xhat
		bn.lastInvStd = invStd
		bn.lastShape = append(bn.lastShape[:0], x.Shape()...)
		return out
	}
	for c := 0; c < bn.C; c++ {
		is := float32(1 / math.Sqrt(float64(runningVar[c])+float64(bn.Eps)))
		g, b := bn.gamma.W.Data()[c], bn.beta.W.Data()[c]
		mf := runningMean[c]
		for s := 0; s < n; s++ {
			base := (s*bn.C + c) * plane
			for i := base; i < base+plane; i++ {
				out.Data()[i] = float32(g*(x.Data()[i]-mf)*is) + b
			}
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient:
// dx = gamma*invStd/m * (m*dy - sum(dy) - xhat*sum(dy*xhat)).
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if bn.lastXHat == nil {
		panic("nn: BatchNorm2D.Backward before Forward(train=true)")
	}
	n, h, w := bn.lastShape[0], bn.lastShape[2], bn.lastShape[3]
	plane := h * w
	m := float32(n * plane)
	gradIn := tensor.New(bn.lastShape...)
	for c := 0; c < bn.C; c++ {
		var sumDy, sumDyXhat float64
		for s := 0; s < n; s++ {
			base := (s*bn.C + c) * plane
			for i := base; i < base+plane; i++ {
				dy := float64(grad.Data()[i])
				sumDy += dy
				sumDyXhat += float64(dy * float64(bn.lastXHat.Data()[i]))
			}
		}
		bn.beta.Grad.Data()[c] += float32(sumDy)
		bn.gamma.Grad.Data()[c] += float32(sumDyXhat)
		g := bn.gamma.W.Data()[c]
		is := bn.lastInvStd[c]
		k := g * is / m
		sd, sdx := float32(sumDy), float32(sumDyXhat)
		for s := 0; s < n; s++ {
			base := (s*bn.C + c) * plane
			for i := base; i < base+plane; i++ {
				dy := grad.Data()[i]
				xh := bn.lastXHat.Data()[i]
				gradIn.Data()[i] = k * (float32(m*dy) - sd - float32(xh*sdx))
			}
		}
	}
	return gradIn
}
