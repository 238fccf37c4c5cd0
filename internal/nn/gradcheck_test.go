package nn

import (
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

// numericGrad estimates dLoss/dx by central differences for every element
// of x, where loss is recomputed via f().
func numericGrad(x *tensor.Tensor, f func() float64) *tensor.Tensor {
	const h = 1e-2
	g := tensor.New(x.Shape()...)
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		lp := f()
		x.Data()[i] = orig - h
		lm := f()
		x.Data()[i] = orig
		g.Data()[i] = float32((lp - lm) / (2 * h))
	}
	return g
}

// checkGrads compares analytic and numeric gradients with a mixed
// absolute/relative tolerance suited to float32 forward passes.
func checkGrads(t *testing.T, name string, analytic, numeric *tensor.Tensor) {
	t.Helper()
	if analytic.Len() != numeric.Len() {
		t.Fatalf("%s: gradient length mismatch", name)
	}
	for i := range analytic.Data() {
		a, n := float64(analytic.Data()[i]), float64(numeric.Data()[i])
		diff := math.Abs(a - n)
		scale := math.Max(math.Abs(a), math.Abs(n))
		if diff > 2e-2 && diff/math.Max(scale, 1e-6) > 0.12 {
			t.Fatalf("%s: grad[%d] analytic %v vs numeric %v", name, i, a, n)
		}
	}
}

// lossThrough runs a full forward pass through layer and a quadratic loss
// sum(0.5*y^2), whose gradient w.r.t. y is simply y.
func lossThrough(layer Layer, x *tensor.Tensor) float64 {
	y := layer.Forward(x, true)
	s := 0.0
	for _, v := range y.Data() {
		s += float64(0.5 * float64(v) * float64(v))
	}
	return s
}

func analyticThrough(layer Layer, x *tensor.Tensor) (inGrad *tensor.Tensor) {
	ZeroGrad(layer.Params())
	y := layer.Forward(x, true)
	return layer.Backward(y.Clone())
}

func testLayerGradients(t *testing.T, name string, layer Layer, x *tensor.Tensor) {
	t.Helper()
	inGrad := analyticThrough(layer, x)
	// input gradient
	numIn := numericGrad(x, func() float64 { return lossThrough(layer, x) })
	checkGrads(t, name+"/input", inGrad, numIn)
	// parameter gradients
	analyticThrough(layer, x) // refresh caches + grads
	for pi, p := range layer.Params() {
		numP := numericGrad(p.W, func() float64 { return lossThrough(layer, x) })
		checkGrads(t, name+"/param"+p.Name+string(rune('0'+pi)), p.Grad, numP)
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	x := tensor.Randn(rng, 1, 2, 4)
	testLayerGradients(t, "Linear", l, x)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(rng, 2, 3, 3, 1, 1, true)
	x := tensor.Randn(rng, 1, 2, 2, 5, 5)
	testLayerGradients(t, "Conv2D", c, x)
}

func TestConv2DStride2Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(rng, 1, 2, 3, 2, 1, false)
	x := tensor.Randn(rng, 1, 2, 1, 6, 6)
	testLayerGradients(t, "Conv2DStride2", c, x)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn := NewBatchNorm2D(2)
	// offset gamma/beta from the trivial init so the test is meaningful
	bn.gamma.W.Data()[0] = 1.3
	bn.beta.W.Data()[1] = -0.4
	x := tensor.Randn(rng, 1, 3, 2, 3, 3)
	testLayerGradients(t, "BatchNorm2D", bn, x)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := &ReLU{}
	// keep values away from 0 so finite differences don't cross the kink
	x := tensor.RandUniform(rng, 0.2, 1.5, 2, 6)
	for i := 0; i < x.Len(); i += 2 {
		x.Data()[i] = -x.Data()[i]
	}
	testLayerGradients(t, "ReLU", r, x)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewMaxPool2D(2)
	// well-separated values so the argmax does not flip under perturbation
	x := tensor.New(1, 1, 4, 4)
	perm := rng.Perm(16)
	for i, pv := range perm {
		x.Data()[i] = float32(pv)
	}
	testLayerGradients(t, "MaxPool2D", p, x)
}

func TestAvgPool2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := NewAvgPool2D(2)
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	testLayerGradients(t, "AvgPool2D", p, x)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := &GlobalAvgPool{}
	x := tensor.Randn(rng, 1, 2, 3, 2, 2)
	testLayerGradients(t, "GlobalAvgPool", p, x)
}

func TestBasicBlockIdentityGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := NewBasicBlock(rng, 2, 2, 1)
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	inGrad := analyticThrough(b, x)
	numIn := numericGrad(x, func() float64 { return lossThrough(b, x) })
	checkGrads(t, "BasicBlock/input", inGrad, numIn)
}

func TestBasicBlockProjectionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBasicBlock(rng, 2, 4, 2)
	if b.projConv == nil {
		t.Fatal("expected projection shortcut for shape change")
	}
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	inGrad := analyticThrough(b, x)
	numIn := numericGrad(x, func() float64 { return lossThrough(b, x) })
	checkGrads(t, "BasicBlockProj/input", inGrad, numIn)
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := tensor.Randn(rng, 1, 3, 4)
	labels := []int{1, 3, 0}
	_, grad := CrossEntropy(logits, labels)
	num := numericGrad(logits, func() float64 {
		l, _ := CrossEntropy(logits, labels)
		return l
	})
	checkGrads(t, "CrossEntropy", grad, num)
}

func TestNTXentGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	z := tensor.Randn(rng, 1, 6, 4) // n=3 pairs
	_, grad := NTXent(z, 0.5)
	num := numericGrad(z, func() float64 {
		l, _ := NTXent(z, 0.5)
		return l
	})
	checkGrads(t, "NTXent", grad, num)
}
