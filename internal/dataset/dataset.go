// Package dataset provides the synthetic stand-ins for the paper's
// evaluation datasets (MNIST, FashionMNIST, CIFAR-10, ISOLET — none of
// which can be downloaded in this offline reproduction) and the federated
// partitioning schemes (IID, label-shard non-IID, Dirichlet non-IID).
//
// The image generators are class-conditional: each class has a smooth random
// prototype pattern, and samples are gain-scaled, shifted, noisy copies.
// This preserves what the experiments need from the real datasets — classes
// that a CNN can learn, that a frozen feature extractor maps to separable
// features, and that are hard enough that accuracy improves over federated
// rounds rather than saturating instantly.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"fhdnn/internal/tensor"
)

// Dataset is a labeled collection of fixed-shape examples. X is
// [n, C, H, W] for images or [n, F] for flat feature data.
type Dataset struct {
	Name       string
	X          *tensor.Tensor
	Labels     []int
	NumClasses int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Labels) }

// SampleShape returns the per-example shape (without the leading batch dim).
func (d *Dataset) SampleShape() []int { return d.X.Shape()[1:] }

// SampleLen returns the flat length of one example.
func (d *Dataset) SampleLen() int { return d.X.Len() / d.Len() }

// Gather copies the examples at the given indices into a new batch tensor
// and label slice.
func (d *Dataset) Gather(idx []int) (*tensor.Tensor, []int) {
	sl := d.SampleLen()
	shape := append([]int{len(idx)}, d.SampleShape()...)
	out := tensor.New(shape...)
	labels := make([]int, len(idx))
	for bi, i := range idx {
		if i < 0 || i >= d.Len() {
			panic(fmt.Sprintf("dataset: index %d out of range [0,%d)", i, d.Len()))
		}
		copy(out.Data()[bi*sl:(bi+1)*sl], d.X.Data()[i*sl:(i+1)*sl])
		labels[bi] = d.Labels[i]
	}
	return out, labels
}

// Subset returns a view dataset containing only the given indices (data is
// copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	x, labels := d.Gather(idx)
	return &Dataset{Name: d.Name, X: x, Labels: labels, NumClasses: d.NumClasses}
}

// Batches splits n indices into minibatches of size b (last batch may be
// short), in the order given by perm (pass nil for natural order).
func Batches(n, b int, perm []int) [][]int {
	if b <= 0 {
		panic("dataset: batch size must be positive")
	}
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	var out [][]int
	for i := 0; i < n; i += b {
		end := i + b
		if end > n {
			end = n
		}
		out = append(out, perm[i:end])
	}
	return out
}

// ImageConfig parameterizes a synthetic image dataset.
type ImageConfig struct {
	Name          string
	Classes       int
	Channels      int
	Size          int // height == width
	TrainPerClass int
	TestPerClass  int
	// Noise is the std of additive pixel noise; Shift the max translation
	// in pixels; GainStd the std of the per-sample multiplicative gain.
	Noise   float64
	Shift   int
	GainStd float64
	Seed    int64
}

// MNISTLike returns the configuration standing in for MNIST: 1-channel
// digits with modest variability.
func MNISTLike(size, trainPerClass, testPerClass int, seed int64) ImageConfig {
	return ImageConfig{
		Name: "mnist", Classes: 10, Channels: 1, Size: size,
		TrainPerClass: trainPerClass, TestPerClass: testPerClass,
		Noise: 0.35, Shift: size / 8, GainStd: 0.15, Seed: seed,
	}
}

// FashionMNISTLike stands in for FashionMNIST: 1-channel, harder than MNIST
// (more intra-class variability).
func FashionMNISTLike(size, trainPerClass, testPerClass int, seed int64) ImageConfig {
	return ImageConfig{
		Name: "fashion", Classes: 10, Channels: 1, Size: size,
		TrainPerClass: trainPerClass, TestPerClass: testPerClass,
		Noise: 0.55, Shift: size / 6, GainStd: 0.25, Seed: seed,
	}
}

// CIFAR10Like stands in for CIFAR-10: 3-channel natural-image-like data,
// the hardest of the three.
func CIFAR10Like(size, trainPerClass, testPerClass int, seed int64) ImageConfig {
	return ImageConfig{
		Name: "cifar10", Classes: 10, Channels: 3, Size: size,
		TrainPerClass: trainPerClass, TestPerClass: testPerClass,
		Noise: 0.65, Shift: size / 5, GainStd: 0.3, Seed: seed,
	}
}

// GenerateImages builds train and test datasets from cfg. Prototypes are
// smooth random fields (sums of random low-frequency sinusoids), so nearby
// pixels are correlated as in natural images.
func GenerateImages(cfg ImageConfig) (train, test *Dataset) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([][]float32, cfg.Classes)
	planeLen := cfg.Channels * cfg.Size * cfg.Size
	for c := range protos {
		protos[c] = smoothField(rng, cfg.Channels, cfg.Size)
	}
	gen := func(perClass int, r *rand.Rand) *Dataset {
		n := cfg.Classes * perClass
		x := tensor.New(n, cfg.Channels, cfg.Size, cfg.Size)
		labels := make([]int, n)
		for c := 0; c < cfg.Classes; c++ {
			for s := 0; s < perClass; s++ {
				idx := c*perClass + s
				labels[idx] = c
				sample := renderSample(r, protos[c], cfg)
				copy(x.Data()[idx*planeLen:(idx+1)*planeLen], sample)
			}
		}
		return &Dataset{Name: cfg.Name, X: x, Labels: labels, NumClasses: cfg.Classes}
	}
	train = gen(cfg.TrainPerClass, rng)
	test = gen(cfg.TestPerClass, rng)
	return train, test
}

// smoothField generates a smooth multi-channel random pattern with unit
// variance, as a sum of random 2-D sinusoids of low spatial frequency.
func smoothField(rng *rand.Rand, channels, size int) []float32 {
	const waves = 6
	out := make([]float32, channels*size*size)
	for ch := 0; ch < channels; ch++ {
		type wave struct{ fx, fy, phase, amp float64 }
		ws := make([]wave, waves)
		for i := range ws {
			ws[i] = wave{
				fx:    (float64(rng.Float64()*3) + 0.5) * 2 * math.Pi / float64(size),
				fy:    (float64(rng.Float64()*3) + 0.5) * 2 * math.Pi / float64(size),
				phase: float64(rng.Float64()) * 2 * math.Pi,
				amp:   rng.NormFloat64(),
			}
		}
		var sumSq float64
		base := ch * size * size
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				v := 0.0
				for _, w := range ws {
					v += float64(w.amp * math.Sin(float64(w.fx*float64(x))+float64(w.fy*float64(y))+w.phase))
				}
				out[base+y*size+x] = float32(v)
				sumSq += float64(v * v)
			}
		}
		// normalize channel to unit variance
		std := math.Sqrt(sumSq / float64(size*size))
		if std == 0 {
			std = 1
		}
		inv := float32(1 / std)
		for i := base; i < base+size*size; i++ {
			out[i] *= inv
		}
	}
	return out
}

// renderSample draws one noisy, shifted, gain-scaled copy of a prototype.
func renderSample(rng *rand.Rand, proto []float32, cfg ImageConfig) []float32 {
	size := cfg.Size
	out := make([]float32, len(proto))
	dx, dy := 0, 0
	if cfg.Shift > 0 {
		dx = rng.Intn(2*cfg.Shift+1) - cfg.Shift
		dy = rng.Intn(2*cfg.Shift+1) - cfg.Shift
	}
	gain := float32(1 + float64(rng.NormFloat64()*cfg.GainStd))
	for ch := 0; ch < cfg.Channels; ch++ {
		base := ch * size * size
		for y := 0; y < size; y++ {
			sy := (y + dy + size) % size
			for x := 0; x < size; x++ {
				sx := (x + dx + size) % size
				v := float32(proto[base+sy*size+sx]*gain) + float32(rng.NormFloat64()*cfg.Noise)
				out[base+y*size+x] = v
			}
		}
	}
	return out
}

// VectorConfig parameterizes a synthetic flat-feature dataset (the ISOLET
// stand-in used by the Fig. 5 partial-information experiment).
type VectorConfig struct {
	Name      string
	Classes   int
	Features  int
	PerClass  int
	ClassStd  float64 // spread of class means
	SampleStd float64 // within-class noise
	Seed      int64
}

// GenerateVectors builds a Gaussian-cluster dataset from cfg.
func GenerateVectors(cfg VectorConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	means := tensor.Randn(rng, cfg.ClassStd, cfg.Classes, cfg.Features)
	n := cfg.Classes * cfg.PerClass
	x := tensor.New(n, cfg.Features)
	labels := make([]int, n)
	for c := 0; c < cfg.Classes; c++ {
		for s := 0; s < cfg.PerClass; s++ {
			idx := c*cfg.PerClass + s
			labels[idx] = c
			for j := 0; j < cfg.Features; j++ {
				x.Data()[idx*cfg.Features+j] = means.At(c, j) + float32(rng.NormFloat64()*cfg.SampleStd)
			}
		}
	}
	return &Dataset{Name: cfg.Name, X: x, Labels: labels, NumClasses: cfg.Classes}
}
