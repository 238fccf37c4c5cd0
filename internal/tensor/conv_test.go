package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvGeomOutputDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if g.OutH() != 8 || g.OutW() != 8 {
		t.Fatalf("same-pad 3x3 conv: out %dx%d, want 8x8", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}
	if g2.OutH() != 4 || g2.OutW() != 4 {
		t.Fatalf("stride-2: out %dx%d, want 4x4", g2.OutH(), g2.OutW())
	}
}

// naiveConv computes a direct convolution for cross-checking im2col+matmul.
func naiveConv(img []float32, g ConvGeom, w []float32, outC int) []float32 {
	outH, outW := g.OutH(), g.OutW()
	out := make([]float32, outC*outH*outW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := float32(0)
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.Stride - g.Pad + ky
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.Stride - g.Pad + kx
							if ix < 0 || ix >= g.InW {
								continue
							}
							wIdx := ((oc*g.InC+c)*g.KH+ky)*g.KW + kx
							s += float32(img[c*g.InH*g.InW+iy*g.InW+ix] * w[wIdx])
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = s
			}
		}
	}
	return out
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 4 + rng.Intn(5), InW: 4 + rng.Intn(5),
			KH: 3, KW: 3, Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		outC := 1 + rng.Intn(4)
		img := Randn(rng, 1, g.InC*g.InH*g.InW).Data()
		w := Randn(rng, 1, outC*g.ColCols()).Data()

		col := make([]float32, g.ColRows()*g.ColCols())
		g.Im2Col(img, col)
		// out = W (outC x colCols) * col^T -> use MatMulTransB
		wT := FromSlice(w, outC, g.ColCols())
		colT := FromSlice(col, g.ColRows(), g.ColCols())
		got := MatMulTransB(wT, colT) // outC x colRows

		want := naiveConv(img, g, w, outC)
		for i, wv := range want {
			oc, pos := i/(g.ColRows()), i%(g.ColRows())
			gv := got.At(oc, pos)
			if math.Abs(float64(gv-wv)) > 1e-3 {
				t.Fatalf("trial %d: conv mismatch at %d: %v vs %v", trial, i, gv, wv)
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. <Im2Col(x), y> == <x, Col2Im(y)>.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			InC: 1 + rng.Intn(2), InH: 4 + rng.Intn(3), InW: 4 + rng.Intn(3),
			KH: 3, KW: 3, Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		n := g.InC * g.InH * g.InW
		m := g.ColRows() * g.ColCols()
		x := Randn(rng, 1, n).Data()
		y := Randn(rng, 1, m).Data()
		cx := make([]float32, m)
		g.Im2Col(x, cx)
		iy := make([]float32, n)
		g.Col2Im(y, iy)
		var lhs, rhs float64
		for i := range cx {
			lhs += float64(float64(cx[i]) * float64(y[i]))
		}
		for i := range x {
			rhs += float64(float64(x[i]) * float64(iy[i]))
		}
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColBadLengthsPanic(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Im2Col(make([]float32, 3), make([]float32, g.ColRows()*g.ColCols()))
}

func TestMaxPool2D(t *testing.T) {
	// 1 channel 4x4
	img := []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	out, argmax := make([]float32, 4), make([]int32, 4)
	oh, ow := MaxPool2DInto(img, 1, 4, 4, 2, 2, out, argmax)
	if oh != 2 || ow != 2 {
		t.Fatalf("pool dims %dx%d", oh, ow)
	}
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, out[i], w)
		}
	}
	if argmax[0] != 5 || argmax[3] != 15 {
		t.Fatalf("argmax = %v", argmax)
	}
}

func TestMaxPool2DNegativeValues(t *testing.T) {
	img := []float32{-5, -2, -8, -1}
	out := make([]float32, 1)
	MaxPool2DInto(img, 1, 2, 2, 2, 2, out, nil)
	if out[0] != -1 {
		t.Fatalf("max of negatives = %v, want -1", out[0])
	}
}

func TestGlobalAvgPool(t *testing.T) {
	img := []float32{1, 2, 3, 4, 10, 10, 10, 10}
	out := make([]float32, 2)
	GlobalAvgPoolInto(img, 2, 2, 2, out)
	if out[0] != 2.5 || out[1] != 10 {
		t.Fatalf("GAP = %v", out)
	}
}

// TestIm2RowIsIm2ColTransposed holds Im2Row to the transpose of Im2Col,
// element for element, over strides 1-3, paddings 0-2, kernels from 1 x 1
// up to wider than the image, and images down to 1 x 1, where whole tap
// rows fall in the padding.
func TestIm2RowIsIm2ColTransposed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tried := 0
	for tried < 300 {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 1 + rng.Intn(7), InW: 1 + rng.Intn(7),
			KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5), Stride: 1 + rng.Intn(3), Pad: rng.Intn(3),
		}
		if g.OutH() < 1 || g.OutW() < 1 {
			continue
		}
		tried++
		img := Randn(rng, 1, g.InC*g.InH*g.InW).Data()
		col := make([]float32, g.ColLen())
		rows := make([]float32, g.ColLen())
		for i := range rows {
			rows[i] = float32(math.NaN()) // every element must be written
		}
		g.Im2Col(img, col)
		g.Im2Row(img, rows)
		for r := 0; r < g.ColRows(); r++ {
			for c := 0; c < g.ColCols(); c++ {
				if math.Float32bits(rows[c*g.ColRows()+r]) != math.Float32bits(col[r*g.ColCols()+c]) {
					t.Fatalf("%+v: rows[%d][%d] = %v, col[%d][%d] = %v", g, c, r, rows[c*g.ColRows()+r], r, c, col[r*g.ColCols()+c])
				}
			}
		}
	}
}
