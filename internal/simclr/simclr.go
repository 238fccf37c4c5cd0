// Package simclr implements SimCLR-style self-supervised contrastive
// pretraining (Chen et al., ICML 2020), which the FHDnn paper uses to obtain
// its frozen, class-agnostic CNN feature extractor. Two stochastic
// augmentations of each image are pushed through an encoder and a projection
// head, and the NT-Xent loss pulls the two views of the same image together
// while pushing apart views of different images. No labels are used.
package simclr

import (
	"fmt"
	"math/rand"

	"fhdnn/internal/dataset"
	"fhdnn/internal/nn"
	"fhdnn/internal/tensor"
)

// AugmentConfig controls the stochastic augmentation pipeline. The
// augmentations mirror SimCLR's crop / flip / color-jitter / blur family,
// adapted to this repository's synthetic images: random shift (crop
// equivalent), horizontal flip, per-channel gain jitter (color jitter
// equivalent), and additive Gaussian noise.
type AugmentConfig struct {
	MaxShift   int     // random translation in pixels
	FlipProb   float64 // horizontal mirror probability
	GainStd    float64 // per-channel multiplicative jitter std
	NoiseStd   float64 // additive pixel noise std
	CutoutFrac float64 // side of the erased square as a fraction of size (0 disables)
	CutoutProb float64 // probability of applying cutout
}

// DefaultAugment returns a medium-strength pipeline for sizexsize images.
func DefaultAugment(size int) AugmentConfig {
	return AugmentConfig{
		MaxShift:   size / 6,
		FlipProb:   0.5,
		GainStd:    0.2,
		NoiseStd:   0.2,
		CutoutFrac: 0.25,
		CutoutProb: 0.5,
	}
}

// Augment returns a randomly augmented copy of one CHW image.
func Augment(rng *rand.Rand, img []float32, channels, size int, cfg AugmentConfig) []float32 {
	out := make([]float32, len(img))
	dx, dy := 0, 0
	if cfg.MaxShift > 0 {
		dx = rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		dy = rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
	}
	flip := rng.Float64() < cfg.FlipProb
	for ch := 0; ch < channels; ch++ {
		gain := float32(1 + float64(rng.NormFloat64()*cfg.GainStd))
		base := ch * size * size
		for y := 0; y < size; y++ {
			sy := (y + dy + size) % size
			for x := 0; x < size; x++ {
				sx := (x + dx + size) % size
				if flip {
					sx = size - 1 - sx
				}
				v := float32(img[base+sy*size+sx]*gain) + float32(rng.NormFloat64()*cfg.NoiseStd)
				out[base+y*size+x] = v
			}
		}
	}
	if cfg.CutoutFrac > 0 && rng.Float64() < cfg.CutoutProb {
		side := int(cfg.CutoutFrac * float64(size))
		if side > 0 {
			cy, cx := rng.Intn(size), rng.Intn(size)
			for ch := 0; ch < channels; ch++ {
				base := ch * size * size
				for y := cy; y < cy+side && y < size; y++ {
					for x := cx; x < cx+side && x < size; x++ {
						out[base+y*size+x] = 0
					}
				}
			}
		}
	}
	return out
}

// The optimizer and loss settings of every pretraining run. The views are
// augmented by DefaultAugment at the dataset's image size.
const (
	learningRate = 0.05
	momentum     = 0.9
	temperature  = 0.5 // NT-Xent softmax temperature
	projDim      = 16  // projection head output dimension
)

// Config parameterizes a pretraining run.
type Config struct {
	Epochs    int
	BatchSize int // number of images per step (2x views are formed)
	Seed      int64
}

// DefaultConfig returns small-scale defaults suitable for CPU pretraining.
func DefaultConfig() Config {
	return Config{Epochs: 5, BatchSize: 16, Seed: 1}
}

// Result bundles the pretrained encoder with its statistics.
type Result struct {
	Encoder    *nn.Sequential // frozen feature extractor: NCHW -> [batch, dim]
	FeatureDim int
	Losses     []float64 // mean NT-Xent loss per epoch
}

// Pretrain trains encoder+projection head on unlabeled images from ds and
// returns the encoder. The projection head is discarded after training,
// exactly as in SimCLR.
func Pretrain(encoder *nn.Sequential, featureDim int, ds *dataset.Dataset, cfg Config) *Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	head := nn.NewSequential(
		nn.NewLinear(rng, featureDim, featureDim),
		&nn.ReLU{},
		nn.NewLinear(rng, featureDim, projDim),
	)
	params := append(encoder.Params(), head.Params()...)
	opt := nn.NewSGD(learningRate, momentum, 1e-4)

	channels := ds.X.Dim(1)
	size := ds.X.Dim(2)
	augment := DefaultAugment(size)
	sampleLen := ds.SampleLen()
	losses := make([]float64, 0, cfg.Epochs)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(ds.Len())
		var epochLoss float64
		steps := 0
		for _, b := range dataset.Batches(ds.Len(), cfg.BatchSize, perm) {
			if len(b) < 2 {
				continue // NT-Xent needs at least 2 images
			}
			// Build the 2n-view batch: rows [0,n) are view 1, [n,2n) view 2.
			n := len(b)
			views := tensor.New(2*n, channels, size, size)
			for i, idx := range b {
				img := ds.X.Data()[idx*sampleLen : (idx+1)*sampleLen]
				copy(views.Data()[i*sampleLen:(i+1)*sampleLen],
					Augment(rng, img, channels, size, augment))
				copy(views.Data()[(n+i)*sampleLen:(n+i+1)*sampleLen],
					Augment(rng, img, channels, size, augment))
			}
			nn.ZeroGrad(params)
			feats := encoder.Forward(views, true)
			proj := head.Forward(feats, true)
			loss, grad := nn.NTXent(proj, temperature)
			encoder.Backward(head.Backward(grad))
			opt.Step(params)
			epochLoss += loss
			steps++
		}
		if steps > 0 {
			losses = append(losses, epochLoss/float64(steps))
		}
	}
	return &Result{Encoder: encoder, FeatureDim: featureDim, Losses: losses}
}

// NewSmallEncoder builds a compact convolutional encoder — two conv-BN-ReLU
// stages, each followed by 2x2 average pooling, then a flatten of the
// remaining coarse spatial map — suitable for CPU-scale SimCLR pretraining.
// Keeping a (size/4 x size/4) spatial map instead of global pooling matters:
// on image data the class evidence lives in the spatial arrangement, which
// global pooling destroys. size must be a multiple of 4. Returns the network
// and its output feature dimension 2*width*(size/4)^2.
func NewSmallEncoder(rng *rand.Rand, channels, width, size int) (*nn.Sequential, int) {
	if size%4 != 0 {
		panic(fmt.Sprintf("simclr: image size %d must be a multiple of 4", size))
	}
	enc := nn.NewSequential(
		nn.NewConv2D(rng, channels, width, 3, 1, 1, false),
		nn.NewBatchNorm2D(width),
		&nn.ReLU{},
		nn.NewAvgPool2D(2),
		nn.NewConv2D(rng, width, 2*width, 3, 1, 1, false),
		nn.NewBatchNorm2D(2*width),
		&nn.ReLU{},
		nn.NewAvgPool2D(2),
		&nn.Flatten{},
	)
	s4 := size / 4
	return enc, 2 * width * s4 * s4
}
