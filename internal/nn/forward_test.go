package nn

import (
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

// oracleConvForward is Conv2D.Forward as it was before the im2row
// lowering: each image through Im2Col and W x col^T.
func oracleConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	g := c.geom(x)
	n := x.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	out := tensor.New(n, c.OutC, outH, outW)
	imgLen := g.InC * g.InH * g.InW
	outLen := c.OutC * outH * outW
	col := make([]float32, g.ColLen())
	colT := tensor.FromSlice(col, g.ColRows(), g.ColCols())
	for s := 0; s < n; s++ {
		g.Im2Col(x.Data()[s*imgLen:(s+1)*imgLen], col)
		copy(out.Data()[s*outLen:(s+1)*outLen], tensor.MatMulTransB(c.weight.W, colT).Data())
		if c.UseBias {
			for oc := 0; oc < c.OutC; oc++ {
				seg := out.Data()[s*outLen+oc*outH*outW : s*outLen+(oc+1)*outH*outW]
				for i := range seg {
					seg[i] += c.bias.W.Data()[oc]
				}
			}
		}
	}
	return out
}

// TestConvForwardMatchesIm2ColOracle pins the im2row forward to the im2col
// one bit for bit: the GEMM forms the same products and sums them in the
// same ascending-tap chains, only reading B contiguously.
func TestConvForwardMatchesIm2ColOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range []struct{ inC, outC, k, stride, pad, h, w int }{
		{3, 8, 3, 1, 1, 16, 16}, {8, 16, 3, 2, 1, 8, 8}, {2, 5, 1, 1, 0, 5, 7}, {4, 6, 5, 2, 2, 9, 6}, {1, 3, 3, 1, 2, 1, 2},
	} {
		conv := NewConv2D(rng, c.inC, c.outC, c.k, c.stride, c.pad, true)
		conv.bias.W = tensor.Randn(rng, 1, c.outC)
		x := tensor.Randn(rng, 1, 5, c.inC, c.h, c.w)
		want := oracleConvForward(conv, x)
		for _, w := range []int{1, 2, 3} {
			old := tensor.SetWorkers(w)
			got := conv.Forward(x, false)
			tensor.SetWorkers(old)
			for i, v := range want.Data() {
				if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("%+v workers=%d: out[%d] = %v, want %v", c, w, i, got.Data()[i], v)
				}
			}
		}
	}
}

// TestReLUInferenceMatchesTrain pins the branch-free inference pass to
// the v > 0 rule of the training pass: -0, +-0 subnormal edges, NaN of
// both signs and -Inf give +0; +Inf and every positive value pass.
func TestReLUInferenceMatchesTrain(t *testing.T) {
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), -float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, 1, -1, math.Float32frombits(0x7f800001), math.Float32frombits(0xffffffff)}
	x := tensor.Randn(rand.New(rand.NewSource(32)), 1, 3, 40)
	copy(x.Data(), special)
	got := (&ReLU{}).Forward(x, false)
	want := (&ReLU{}).Forward(x, true)
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("ReLU(%v) = %v (%#x), want %v (%#x)", x.Data()[i], got.Data()[i],
				math.Float32bits(got.Data()[i]), v, math.Float32bits(v))
		}
	}
}
