package nn

import (
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

func TestLinearForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 2, 2)
	copy(l.weight.W.Data(), []float32{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(l.bias.W.Data(), []float32{10, 20})
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	y := l.Forward(x, false)
	if y.At(0, 0) != 13 || y.At(0, 1) != 27 {
		t.Fatalf("Linear forward = %v", y.Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.Randn(rng, 3, 5, 7)
	p := Softmax(logits)
	for s := 0; s < 5; s++ {
		sum := 0.0
		for k := 0; k < 7; k++ {
			v := p.At(s, k)
			if v < 0 || v > 1 {
				t.Fatalf("prob out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", s, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 1001, 999}, 1, 3)
	p := Softmax(logits)
	sum := 0.0
	for _, v := range p.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestCrossEntropyGradRowsSumToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.Randn(rng, 1, 4, 6)
	_, grad := CrossEntropy(logits, []int{0, 1, 2, 3})
	for s := 0; s < 4; s++ {
		sum := 0.0
		for k := 0; k < 6; k++ {
			sum += float64(grad.At(s, k))
		}
		if math.Abs(sum) > 1e-5 {
			t.Fatalf("grad row %d sums to %v, want 0", s, sum)
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float32{100, 0, 0}, 1, 3)
	loss, _ := CrossEntropy(logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("loss for perfect prediction = %v", loss)
	}
}

func TestCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	CrossEntropy(tensor.New(1, 3), []int{5})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 2, 0,
		5, 1, 1,
		0, 0, 3,
	}, 3, 3)
	acc := Accuracy(logits, []int{1, 0, 0})
	if math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Fatalf("Accuracy = %v", acc)
	}
}

func TestSGDStepNoMomentum(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1, 2}, 2), false)
	p.Grad.Data()[0] = 0.5
	p.Grad.Data()[1] = -0.5
	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*Param{p})
	if math.Abs(float64(p.W.Data()[0])-0.95) > 1e-6 || math.Abs(float64(p.W.Data()[1])-2.05) > 1e-6 {
		t.Fatalf("SGD step = %v", p.W.Data())
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{0}, 1), false)
	opt := NewSGD(1, 0.9, 0)
	p.Grad.Data()[0] = 1
	opt.Step([]*Param{p}) // v=-1, w=-1
	opt.Step([]*Param{p}) // v=-1.9, w=-2.9
	if math.Abs(float64(p.W.Data()[0])+2.9) > 1e-6 {
		t.Fatalf("momentum step = %v", p.W.Data()[0])
	}
}

func TestSGDWeightDecaySkipsNoDecay(t *testing.T) {
	w1 := NewParam("w", tensor.FromSlice([]float32{1}, 1), false)
	w2 := NewParam("b", tensor.FromSlice([]float32{1}, 1), true)
	opt := NewSGD(0.1, 0, 1.0)
	opt.Step([]*Param{w1, w2})
	if math.Abs(float64(w1.W.Data()[0])-0.9) > 1e-6 {
		t.Fatalf("decayed param = %v, want 0.9", w1.W.Data()[0])
	}
	if w2.W.Data()[0] != 1 {
		t.Fatalf("NoDecay param changed: %v", w2.W.Data()[0])
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := &Flatten{}
	x := tensor.Randn(rng, 1, 2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := f.Backward(y)
	if g.NumDims() != 4 || g.Dim(3) != 5 {
		t.Fatalf("backward shape %v", g.Shape())
	}
}

func TestFlattenParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(NewLinear(rng, 3, 4), &ReLU{}, NewLinear(rng, 4, 2))
	flat := FlattenParams(net.Params())
	if len(flat) != NumParams(net.Params()) {
		t.Fatal("flat length mismatch")
	}
	flat2 := make([]float32, len(flat))
	for i := range flat2 {
		flat2[i] = float32(i)
	}
	SetFlatParams(net.Params(), flat2)
	got := FlattenParams(net.Params())
	for i := range got {
		if got[i] != flat2[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestSetFlatParamsLengthMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewSequential(NewLinear(rng, 2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SetFlatParams(net.Params(), make([]float32, 3))
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewSequential(NewLinear(rng, 2, 2))
	b := NewSequential(NewLinear(rng, 2, 2))
	CopyParams(b.Params(), a.Params())
	fa, fb := FlattenParams(a.Params()), FlattenParams(b.Params())
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("CopyParams mismatch")
		}
	}
}

func TestBatchNormTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm2D(1)
	x := tensor.Randn(rng, 3, 8, 1, 4, 4)
	x.Scale(2)
	for i := range x.Data() {
		x.Data()[i] += 5
	}
	// Train for several steps so running stats approach batch stats.
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	yTrain := bn.Forward(x, true)
	yEval := bn.Forward(x, false)
	// With converged running stats, train and eval outputs agree closely.
	for i := range yTrain.Data() {
		if math.Abs(float64(yTrain.Data()[i]-yEval.Data()[i])) > 0.2 {
			t.Fatalf("train/eval divergence at %d: %v vs %v", i, yTrain.Data()[i], yEval.Data()[i])
		}
	}
	// Normalized output: mean ~0, std ~1.
	if m := yTrain.Mean(); math.Abs(m) > 1e-3 {
		t.Fatalf("BN output mean %v", m)
	}
}

func TestMNISTCNNShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := MNISTCNNConfig{InChannels: 1, ImgSize: 8, NumClasses: 10, C1: 4, C2: 8, Hidden: 16}
	net := NewMNISTCNN(rng, cfg)
	x := tensor.Randn(rng, 1, 2, 1, 8, 8)
	y := net.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("MNIST CNN output %v", y.Shape())
	}
}

func TestResNetShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewResNet(rng, TinyResNet18(3, 10))
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	y := net.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("ResNet output %v", y.Shape())
	}
	if net.FeatureDim() != 8*8 {
		t.Fatalf("feature dim %d, want 64", net.FeatureDim())
	}
	feat := net.Body.Forward(x, false)
	if feat.Dim(1) != net.FeatureDim() {
		t.Fatalf("body output %v", feat.Shape())
	}
}

func TestResNet18ParamCountMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-width ResNet-18 construction is slow")
	}
	rng := rand.New(rand.NewSource(11))
	net := NewResNet(rng, DefaultResNet18(3, 10))
	n := NumParams(net.Params())
	// The paper quotes "ResNet with 11M parameters" (Sec 4.4).
	if n < 11_000_000 || n > 11_300_000 {
		t.Fatalf("ResNet-18 parameter count = %d, want ~11.17M", n)
	}
}

func TestResNetTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewResNet(rng, ResNetConfig{InChannels: 1, NumClasses: 2, BaseWidth: 4, Blocks: []int{1, 1}})
	// Two linearly separable classes of 8x8 images.
	n := 16
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for s := 0; s < n; s++ {
		labels[s] = s % 2
		val := float32(-1)
		if labels[s] == 1 {
			val = 1
		}
		for i := 0; i < 64; i++ {
			x.Data()[s*64+i] = val + float32(float32(rng.NormFloat64())*0.3)
		}
	}
	opt := NewSGD(0.05, 0.9, 0)
	var first, last float64
	for it := 0; it < 30; it++ {
		ZeroGrad(net.Params())
		logits := net.Forward(x, true)
		loss, grad := CrossEntropy(logits, labels)
		if it == 0 {
			first = loss
		}
		last = loss
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if last >= first*0.5 {
		t.Fatalf("ResNet training did not reduce loss: %v -> %v", first, last)
	}
}

func TestSequentialTrainingLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewSequential(NewLinear(rng, 2, 16), &ReLU{}, NewLinear(rng, 16, 2))
	// XOR-ish data requires the hidden layer.
	xs := []float32{0, 0, 0, 1, 1, 0, 1, 1}
	labels := []int{0, 1, 1, 0}
	x := tensor.FromSlice(xs, 4, 2)
	opt := NewSGD(0.3, 0.9, 0)
	for it := 0; it < 300; it++ {
		ZeroGrad(net.Params())
		logits := net.Forward(x, true)
		_, grad := CrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	logits := net.Forward(x, false)
	if acc := Accuracy(logits, labels); acc < 1 {
		t.Fatalf("failed to learn XOR: accuracy %v", acc)
	}
}

func TestNTXentPullsPositivesTogether(t *testing.T) {
	// With two well-aligned positive pairs, loss should be lower than with
	// misaligned pairs.
	aligned := tensor.FromSlice([]float32{
		1, 0, 0, 1, 0, 0, // pair views (rows 0&2, 1&3)
		1, 0.1, 0, 0.1, 1, 0,
	}, 4, 3)
	// rows: z0, z1, z0', z1' where zi' is the positive of zi
	lossA, _ := NTXent(aligned, 0.5)
	misaligned := tensor.FromSlice([]float32{
		1, 0, 0, 0, 1, 0,
		0, 1, 0, 1, 0, 0,
	}, 4, 3)
	lossB, _ := NTXent(misaligned, 0.5)
	if lossA >= lossB {
		t.Fatalf("aligned loss %v should beat misaligned %v", lossA, lossB)
	}
}

func TestNTXentOddBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd batch")
		}
	}()
	NTXent(tensor.New(5, 3), 0.5)
}

func TestKaimingStd(t *testing.T) {
	if got := kaimingStd(2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("kaimingStd(2) = %v", got)
	}
	if got := kaimingStd(0); got != 1 {
		t.Fatalf("kaimingStd(0) = %v", got)
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	layers := []Layer{
		NewConv2D(rng, 1, 1, 3, 1, 1, false),
		NewLinear(rng, 2, 2),
		NewBatchNorm2D(1),
		&GlobalAvgPool{},
		NewMaxPool2D(2),
	}
	for i, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("layer %d: expected panic on Backward before Forward", i)
				}
			}()
			l.Backward(tensor.New(1, 1, 2, 2))
		}()
	}
}
