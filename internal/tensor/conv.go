package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling operation
// over NCHW tensors.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel size
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// ColRows returns the number of rows of the im2col matrix (one per output
// spatial position).
func (g ConvGeom) ColRows() int { return g.OutH() * g.OutW() }

// ColCols returns the number of columns of the im2col matrix
// (channels x kernel area).
func (g ConvGeom) ColCols() int { return g.InC * g.KH * g.KW }

// ColLen returns the full im2col buffer length, ColRows()*ColCols().
// Callers that lower many images should allocate one buffer of this size
// and reuse it across Im2Col/Col2Im calls.
func (g ConvGeom) ColLen() int { return g.ColRows() * g.ColCols() }

// Im2Col lowers one image (C x H x W, flat slice) into a matrix of shape
// (OutH*OutW) x (C*KH*KW) written into col. Out-of-bounds (padding) taps
// contribute zeros. col must have length ColRows()*ColCols().
func (g ConvGeom) Im2Col(img []float32, col []float32) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	outH, outW := g.OutH(), g.OutW()
	cols := g.ColCols()
	if len(col) != outH*outW*cols {
		panic(fmt.Sprintf("tensor: Im2Col buffer length %d, want %d", len(col), outH*outW*cols))
	}
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.Stride - g.Pad
			for c := 0; c < g.InC; c++ {
				chOff := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					rowOff := chOff + iy*g.InW
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							col[idx] = 0
						} else {
							col[idx] = img[rowOff+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// Im2Row lowers one image (C x H x W, flat slice) into the transpose of
// Im2Col's matrix, (C*KH*KW) x (OutH*OutW) written into rows: one row per
// kernel tap (c, ky, kx), one column per output position, padding taps
// zero. A convolution is then W x rows, a GEMM that reads both operands
// contiguously. rows must have length ColLen().
func (g ConvGeom) Im2Row(img []float32, rows []float32) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Row image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	outH, outW := g.OutH(), g.OutW()
	if len(rows) != outH*outW*g.ColCols() {
		panic(fmt.Sprintf("tensor: Im2Row buffer length %d, want %d", len(rows), outH*outW*g.ColCols()))
	}
	idx := 0
	for c := 0; c < g.InC; c++ {
		plane := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				// Output columns [lo, hi) read inside the image row:
				// 0 <= ox*Stride - Pad + kx < InW.
				lo := min(outW, max(0, (g.Pad-kx+g.Stride-1)/g.Stride))
				hi := lo
				if last := g.InW - 1 + g.Pad - kx; last >= 0 {
					hi = max(lo, min(outW, last/g.Stride+1))
				}
				for oy := 0; oy < outH; oy++ {
					dst := rows[idx : idx+outW]
					idx += outW
					iy := oy*g.Stride - g.Pad + ky
					if iy < 0 || iy >= g.InH {
						clear(dst)
						continue
					}
					src := plane[iy*g.InW:]
					clear(dst[:lo])
					if g.Stride == 1 && lo < hi {
						copy(dst[lo:hi], src[lo-g.Pad+kx:])
					} else {
						for ox := lo; ox < hi; ox++ {
							dst[ox] = src[ox*g.Stride-g.Pad+kx]
						}
					}
					clear(dst[hi:])
				}
			}
		}
	}
}

// Col2Im scatters the columns matrix back into an image, accumulating
// overlapping taps. It is the adjoint of Im2Col and is used for input
// gradients. img is zeroed first.
func (g ConvGeom) Col2Im(col []float32, img []float32) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	for i := range img {
		img[i] = 0
	}
	outH, outW := g.OutH(), g.OutW()
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.Stride - g.Pad
			for c := 0; c < g.InC; c++ {
				chOff := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					rowOff := chOff + iy*g.InW
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							img[rowOff+ix] += col[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// MaxPool2DInto applies max pooling with a square window and equal stride
// over one image (C x H x W) into out, of length c*outH*outW. argmax, for
// backprop, receives the flat input index of every output element; it is
// either the same length as out or nil to skip the bookkeeping (inference).
func MaxPool2DInto(img []float32, c, h, w, k, stride int, out []float32, argmax []int32) (outH, outW int) {
	outH = (h-k)/stride + 1
	outW = (w-k)/stride + 1
	if len(out) != c*outH*outW {
		panic(fmt.Sprintf("tensor: MaxPool2DInto out length %d, want %d", len(out), c*outH*outW))
	}
	if argmax != nil && len(argmax) != len(out) {
		panic(fmt.Sprintf("tensor: MaxPool2DInto argmax length %d, want %d", len(argmax), len(out)))
	}
	guardNoAlias("MaxPool2DInto", out, img, nil)
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(0)
				bi := int32(-1)
				for ky := 0; ky < k; ky++ {
					iy := oy*stride + ky
					for kx := 0; kx < k; kx++ {
						ix := ox*stride + kx
						v := img[chOff+iy*w+ix]
						if bi < 0 || v > best {
							best = v
							bi = int32(chOff + iy*w + ix)
						}
					}
				}
				o := ch*outH*outW + oy*outW + ox
				out[o] = best
				if argmax != nil {
					argmax[o] = bi
				}
			}
		}
	}
	return outH, outW
}

// GlobalAvgPoolInto averages each channel plane of one image (C x H x W)
// into out, of length c.
func GlobalAvgPoolInto(img []float32, c, h, w int, out []float32) {
	if len(out) != c {
		panic(fmt.Sprintf("tensor: GlobalAvgPoolInto out length %d, want %d", len(out), c))
	}
	guardNoAlias("GlobalAvgPoolInto", out, img, nil)
	plane := h * w
	inv := 1.0 / float32(plane)
	for ch := 0; ch < c; ch++ {
		s := float32(0)
		for i := ch * plane; i < (ch+1)*plane; i++ {
			s += img[i]
		}
		out[ch] = s * inv
	}
}
