package simclr

import (
	"math/rand"
	"testing"

	"fhdnn/internal/dataset"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

func TestAugmentPreservesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := make([]float32, 3*8*8)
	for i := range img {
		img[i] = float32(i)
	}
	out := Augment(rng, img, 3, 8, DefaultAugment(8))
	if len(out) != len(img) {
		t.Fatalf("augmented length %d", len(out))
	}
}

func TestAugmentIdentityWhenDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	img := []float32{1, 2, 3, 4}
	cfg := AugmentConfig{} // everything off
	out := Augment(rng, img, 1, 2, cfg)
	for i := range img {
		if out[i] != img[i] {
			t.Fatalf("disabled augment changed pixel %d", i)
		}
	}
}

func TestAugmentIsStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := make([]float32, 16*16)
	for i := range img {
		img[i] = float32(i % 7)
	}
	a := Augment(rng, img, 1, 16, DefaultAugment(16))
	b := Augment(rng, img, 1, 16, DefaultAugment(16))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two augmentations should differ")
	}
}

func TestAugmentCutoutZeroesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	img := make([]float32, 16*16)
	for i := range img {
		img[i] = 1
	}
	cfg := AugmentConfig{CutoutFrac: 0.5, CutoutProb: 1}
	out := Augment(rng, img, 1, 16, cfg)
	zeros := 0
	for _, v := range out {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("cutout did not erase anything")
	}
}

func TestNewSmallEncoderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enc, dim := NewSmallEncoder(rng, 3, 4, 8)
	if dim != 32 { // 2*width*(size/4)^2 = 2*4*4
		t.Fatalf("feature dim %d", dim)
	}
	x := tensor.Randn(rng, 1, 2, 3, 8, 8)
	y := enc.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 32 {
		t.Fatalf("encoder output %v", y.Shape())
	}
}

func TestPretrainReducesContrastiveLoss(t *testing.T) {
	cfgData := dataset.ImageConfig{
		Name: "pre", Classes: 4, Channels: 1, Size: 8,
		TrainPerClass: 12, TestPerClass: 1,
		Noise: 0.3, Shift: 1, GainStd: 0.1, Seed: 6,
	}
	train, _ := dataset.GenerateImages(cfgData)
	rng := rand.New(rand.NewSource(7))
	enc, dim := NewSmallEncoder(rng, 1, 2, 8)
	cfg := DefaultConfig()
	cfg.Epochs = 6
	cfg.BatchSize = 12
	res := Pretrain(enc, dim, train, cfg)
	if len(res.Losses) != 6 {
		t.Fatalf("got %d epoch losses", len(res.Losses))
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if last >= first {
		t.Fatalf("contrastive loss did not decrease: %v -> %v", first, last)
	}
}

// The end-to-end claim behind FHDnn: a self-supervised encoder (never shown
// labels) produces features on which an HD classifier beats chance easily.
func TestPretrainedFeaturesAreLinearlySeparable(t *testing.T) {
	cfgData := dataset.ImageConfig{
		Name: "sep", Classes: 3, Channels: 1, Size: 8,
		TrainPerClass: 20, TestPerClass: 8,
		Noise: 0.25, Shift: 1, GainStd: 0.1, Seed: 8,
	}
	train, test := dataset.GenerateImages(cfgData)
	rng := rand.New(rand.NewSource(9))
	enc, dim := NewSmallEncoder(rng, 1, 2, 8)
	cfg := DefaultConfig()
	cfg.Epochs = 8
	cfg.BatchSize = 15
	Pretrain(enc, dim, train, cfg)

	feats := enc.Forward(train.X, false)
	testFeats := enc.Forward(test.X, false)
	hdEnc := hdc.NewEncoder(rng, 2048, dim)
	m := hdc.NewModel(3, 2048)
	m.OneShotTrain(hdEnc.EncodeBatch(feats), train.Labels)
	for i := 0; i < 5; i++ {
		m.RefineEpoch(hdEnc.EncodeBatch(feats), train.Labels)
	}
	acc := m.Accuracy(hdEnc.EncodeBatch(testFeats), test.Labels)
	if acc < 0.5 { // chance is 1/3
		t.Fatalf("HD on self-supervised features: accuracy %v, want > 0.5", acc)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BatchSize < 2 || cfg.Epochs < 1 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
}
