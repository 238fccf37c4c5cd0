package nn

import (
	"fmt"
	"math"

	"fhdnn/internal/tensor"
)

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	mask []bool
}

// Forward applies the rectifier: v where v > 0, else +0 (so -0 and NaN
// give +0). In inference it is one branch-free pass with no mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	if !train {
		relu(out.Data(), x.Data())
		return out
	}
	if cap(r.mask) < x.Len() {
		r.mask = make([]bool, x.Len())
	}
	r.mask = r.mask[:x.Len()]
	for i, v := range x.Data() {
		if v > 0 {
			out.Data()[i] = v
			r.mask[i] = true
		} else {
			r.mask[i] = false
		}
	}
	return out
}

// relu sets dst[i] to src[i] where src[i] > 0 and to +0 elsewhere. v > 0
// holds exactly when v's bits b satisfy 0 < b <= 0x7f800000 (sign clear,
// not zero, at most +Inf), that is when b-1 < 0x7f800000 as uint32; the
// borrow of that comparison, done in 64 bits, is the keep mask.
func relu(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float32bits(v)
		keep := uint32((uint64(b-1) - 0x7f800000) >> 63)
		dst[i] = math.Float32frombits(b & -keep)
	}
}

// Backward zeroes the gradient where the input was non-positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(r.mask) != grad.Len() {
		panic("nn: ReLU.Backward before Forward(train=true)")
	}
	out := tensor.New(grad.Shape()...)
	for i, v := range grad.Data() {
		if r.mask[i] {
			out.Data()[i] = v
		}
	}
	return out
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// MaxPool2D applies k x k max pooling with stride k over NCHW batches.
type MaxPool2D struct {
	K          int
	lastArgmax []int32
	lastShape  []int
}

// NewMaxPool2D constructs a pooling layer with window and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

// Forward pools each image in the batch.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects NCHW, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH := (h-p.K)/p.K + 1
	outW := (w-p.K)/p.K + 1
	out := tensor.New(n, c, outH, outW)
	if train {
		p.lastArgmax = make([]int32, n*c*outH*outW)
		p.lastShape = append(p.lastShape[:0], x.Shape()...)
	}
	imgLen := c * h * w
	outLen := c * outH * outW
	tensor.ParallelFor(n, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			seg := out.Data()[s*outLen : (s+1)*outLen]
			var am []int32
			if train {
				am = p.lastArgmax[s*outLen : (s+1)*outLen]
			}
			tensor.MaxPool2DInto(x.Data()[s*imgLen:(s+1)*imgLen], c, h, w, p.K, p.K, seg, am)
			if train {
				for i := range am {
					am[i] += int32(s * imgLen)
				}
			}
		}
	})
	return out
}

// Backward scatters each output gradient to its argmax input position.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastArgmax == nil {
		panic("nn: MaxPool2D.Backward before Forward(train=true)")
	}
	gradIn := tensor.New(p.lastShape...)
	for i, a := range p.lastArgmax {
		gradIn.Data()[a] += grad.Data()[i]
	}
	return gradIn
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// AvgPool2D applies k x k average pooling with stride k over NCHW batches.
type AvgPool2D struct {
	K         int
	lastShape []int
}

// NewAvgPool2D constructs an average-pooling layer with window and stride k.
func NewAvgPool2D(k int) *AvgPool2D { return &AvgPool2D{K: k} }

// Forward averages each k x k window.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 {
		panic(fmt.Sprintf("nn: AvgPool2D expects NCHW, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH, outW := h/p.K, w/p.K
	out := tensor.New(n, c, outH, outW)
	inv := 1 / float32(p.K*p.K)
	tensor.ParallelFor(n, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			for ch := 0; ch < c; ch++ {
				inBase := (s*c + ch) * h * w
				outBase := (s*c + ch) * outH * outW
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						sum := float32(0)
						for ky := 0; ky < p.K; ky++ {
							row := inBase + (oy*p.K+ky)*w + ox*p.K
							for kx := 0; kx < p.K; kx++ {
								sum += x.Data()[row+kx]
							}
						}
						out.Data()[outBase+oy*outW+ox] = sum * inv
					}
				}
			}
		}
	})
	if train {
		p.lastShape = append(p.lastShape[:0], x.Shape()...)
	}
	return out
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastShape == nil {
		panic("nn: AvgPool2D.Backward before Forward(train=true)")
	}
	n, c, h, w := p.lastShape[0], p.lastShape[1], p.lastShape[2], p.lastShape[3]
	outH, outW := h/p.K, w/p.K
	gradIn := tensor.New(p.lastShape...)
	inv := 1 / float32(p.K*p.K)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			inBase := (s*c + ch) * h * w
			outBase := (s*c + ch) * outH * outW
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					g := float32(grad.Data()[outBase+oy*outW+ox] * inv)
					for ky := 0; ky < p.K; ky++ {
						row := inBase + (oy*p.K+ky)*w + ox*p.K
						for kx := 0; kx < p.K; kx++ {
							gradIn.Data()[row+kx] += g
						}
					}
				}
			}
		}
	}
	return gradIn
}

// Params returns nil; pooling has no parameters.
func (p *AvgPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces NCHW to [batch, C] by averaging each channel plane.
type GlobalAvgPool struct {
	lastShape []int
}

// Forward averages each channel plane.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool expects NCHW, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(n, c)
	imgLen := c * h * w
	tensor.ParallelFor(n, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			tensor.GlobalAvgPoolInto(x.Data()[s*imgLen:(s+1)*imgLen], c, h, w, out.Data()[s*c:(s+1)*c])
		}
	})
	if train {
		p.lastShape = append(p.lastShape[:0], x.Shape()...)
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastShape == nil {
		panic("nn: GlobalAvgPool.Backward before Forward(train=true)")
	}
	n, c, h, w := p.lastShape[0], p.lastShape[1], p.lastShape[2], p.lastShape[3]
	gradIn := tensor.New(p.lastShape...)
	inv := 1 / float32(h*w)
	plane := h * w
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			g := grad.Data()[s*c+ch] * inv
			base := (s*c + ch) * plane
			for i := base; i < base+plane; i++ {
				gradIn.Data()[i] = g
			}
		}
	}
	return gradIn
}

// Params returns nil; pooling has no parameters.
func (p *GlobalAvgPool) Params() []*Param { return nil }
