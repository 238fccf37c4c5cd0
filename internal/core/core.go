// Package core assembles the FHDnn system — the paper's contribution: a
// frozen, self-supervised CNN feature extractor feeding a random-projection
// hyperdimensional encoder and an HD class-prototype learner, trained by
// federated bundling. Only the HD model crosses the network; the extractor
// and encoder are fixed and shared by all parties.
//
// The package also wires the CNN FedAvg comparator through the same
// datasets, partitions, and unreliable channels so that every experiment in
// the paper's evaluation is an apples-to-apples comparison.
package core

import (
	"fmt"
	"math/rand"

	"fhdnn/internal/dataset"
	"fhdnn/internal/fl"
	"fhdnn/internal/hdc"
	"fhdnn/internal/nn"
	"fhdnn/internal/simclr"
	"fhdnn/internal/tensor"
)

// extractBatch is the chunk size used when running frozen extractors, to
// bound peak memory on large datasets.
const extractBatch = 64

// NetworkExtractor freezes an nn network body as a feature extractor: it
// maps image batches to feature vectors deterministically (frozen
// weights, eval mode).
type NetworkExtractor struct {
	Net   *nn.Sequential
	D     int
	Label string
}

// Features maps [n, C, H, W] images to [n, Dim()] features, running the
// frozen network in eval mode, in chunks.
func (e *NetworkExtractor) Features(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	out := tensor.New(n, e.D)
	sample := x.Len() / n
	for lo := 0; lo < n; lo += extractBatch {
		hi := lo + extractBatch
		if hi > n {
			hi = n
		}
		shape := append([]int{hi - lo}, x.Shape()[1:]...)
		chunk := tensor.FromSlice(x.Data()[lo*sample:hi*sample], shape...)
		feats := e.Net.Forward(chunk, false)
		copy(out.Data()[lo*e.D:hi*e.D], feats.Data())
	}
	return out
}

// Dim returns the feature dimensionality.
func (e *NetworkExtractor) Dim() int { return e.D }

// Name identifies the extractor in reports.
func (e *NetworkExtractor) Name() string { return e.Label }

// NewRandomConvExtractor builds a frozen, randomly-initialized
// convolutional extractor from a seed: one wide 3x3 convolution, ReLU, and
// 2x2 average pooling, flattened to width*(size/2)^2 features. Overcomplete
// random convolutional features are the standard data-free stand-in for a
// generic pretrained network: they are class agnostic, shared by
// construction (same seed everywhere), and preserve the coarse spatial
// structure the HD learner needs. size must be even.
func NewRandomConvExtractor(seed int64, channels, width, size int) *NetworkExtractor {
	if size%2 != 0 {
		panic(fmt.Sprintf("core: image size %d must be even", size))
	}
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewSequential(
		nn.NewConv2D(rng, channels, width, 3, 1, 1, false),
		&nn.ReLU{},
		nn.NewAvgPool2D(2),
		&nn.Flatten{},
	)
	half := size / 2
	return &NetworkExtractor{
		Net: net, D: width * half * half,
		Label: fmt.Sprintf("randconv(w=%d)", width),
	}
}

// NewSimCLRExtractor pretrains a small encoder with SimCLR on the given
// unlabeled dataset and freezes it — the paper's actual recipe, at CPU
// scale.
func NewSimCLRExtractor(ds *dataset.Dataset, width int, cfg simclr.Config) *NetworkExtractor {
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc, dim := simclr.NewSmallEncoder(rng, ds.X.Dim(1), width, ds.X.Dim(2))
	res := simclr.Pretrain(enc, dim, ds, cfg)
	return &NetworkExtractor{Net: res.Encoder, D: dim, Label: fmt.Sprintf("simclr(w=%d)", width)}
}

// Config sizes an FHDnn instance.
type Config struct {
	// HDDim is the hypervector dimensionality d (paper-scale: 10000).
	HDDim int
	// NumClasses is the K of the HD classifier.
	NumClasses int
	// Seed derives the shared random projection; all clients and the
	// server must agree on it.
	Seed int64
	// Binarize selects sign(Phi z) encoding (paper default true).
	Binarize bool
}

// FHDnn is the composed model: extractor -> HD encoder -> HD classifier.
type FHDnn struct {
	Extractor *NetworkExtractor
	Encoder   *hdc.Encoder
	Model     *hdc.Model
	Cfg       Config
}

// New assembles an FHDnn from an extractor and a configuration.
func New(extractor *NetworkExtractor, cfg Config) *FHDnn {
	if cfg.HDDim <= 0 || cfg.NumClasses <= 0 {
		panic(fmt.Sprintf("core: invalid config %+v", cfg))
	}
	enc := hdc.NewEncoder(rand.New(rand.NewSource(cfg.Seed)), cfg.HDDim, extractor.Dim())
	enc.Binarize = cfg.Binarize
	return &FHDnn{
		Extractor: extractor,
		Encoder:   enc,
		Model:     hdc.NewModel(cfg.NumClasses, cfg.HDDim),
		Cfg:       cfg,
	}
}

// EncodeDataset runs the frozen pipeline (features then hypervectors) over
// a dataset once; the result is what federated clients train on.
func (f *FHDnn) EncodeDataset(ds *dataset.Dataset) *tensor.Tensor {
	return f.Encoder.EncodeBatch(f.Extractor.Features(ds.X))
}

// Predict classifies one image tensor [1, C, H, W] (or a batch, returning
// per-row classes).
func (f *FHDnn) Predict(x *tensor.Tensor) []int {
	return f.Model.PredictBatch(f.Encoder.EncodeBatch(f.Extractor.Features(x)))
}

// Accuracy measures classification accuracy on a dataset.
func (f *FHDnn) Accuracy(ds *dataset.Dataset) float64 {
	enc := f.EncodeDataset(ds)
	return f.Model.Accuracy(enc, ds.Labels)
}

// TrainCentralized trains the HD model on all data at once (one-shot plus
// refinement) — the non-federated baseline and the first step of every
// client's local update.
func (f *FHDnn) TrainCentralized(ds *dataset.Dataset, refineEpochs int) {
	enc := f.EncodeDataset(ds)
	f.Model.OneShotTrain(enc, ds.Labels)
	for e := 0; e < refineEpochs; e++ {
		if wrong := f.Model.RefineEpoch(enc, ds.Labels); wrong == 0 {
			break
		}
	}
}

// UpdateSizeBytes returns the size of one transmitted FHDnn update.
func (f *FHDnn) UpdateSizeBytes() int { return f.Model.UpdateSizeBytes(4) }

// FederatedResult bundles a federated run's outputs.
type FederatedResult struct {
	History *fl.History
	Model   *FHDnn
}

// TrainFederated runs federated bundling of this FHDnn over the given
// train/test datasets and client partition. Features and hypervectors are
// computed once up front (they are frozen), then fl.HDTrainer handles the
// rounds. The trained global model is installed into f.Model.
func (f *FHDnn) TrainFederated(train, test *dataset.Dataset, part dataset.Partition, cfg fl.Config) *FederatedResult {
	trainer := &fl.HDTrainer{
		Cfg:        cfg,
		Encoded:    f.EncodeDataset(train),
		Labels:     train.Labels,
		TestEnc:    f.EncodeDataset(test),
		TestLabels: test.Labels,
		NumClasses: f.Cfg.NumClasses,
		Part:       part,
	}
	hist, model := trainer.Run()
	f.Model = model
	return &FederatedResult{History: hist, Model: f}
}

// CNNBaseline describes the FedAvg comparator trained on the same split.
type CNNBaseline struct {
	Build    func(rng *rand.Rand) fl.Network
	LR       float64
	Momentum float64
	// NumParams is used for update-size accounting (bytes = 4*NumParams).
	NumParams int
}

// NewResNetBaseline returns a ResNet comparator of the given configuration.
func NewResNetBaseline(cfg nn.ResNetConfig, lr, momentum float64) CNNBaseline {
	probe := nn.NewResNet(rand.New(rand.NewSource(0)), cfg)
	return CNNBaseline{
		Build:     func(rng *rand.Rand) fl.Network { return nn.NewResNet(rng, cfg) },
		LR:        lr,
		Momentum:  momentum,
		NumParams: nn.NumParams(probe.Params()),
	}
}

// NewMNISTCNNBaseline returns the paper's 2-conv/2-FC comparator.
func NewMNISTCNNBaseline(cfg nn.MNISTCNNConfig, lr, momentum float64) CNNBaseline {
	probe := nn.NewMNISTCNN(rand.New(rand.NewSource(0)), cfg)
	return CNNBaseline{
		Build:     func(rng *rand.Rand) fl.Network { return nn.NewMNISTCNN(rng, cfg) },
		LR:        lr,
		Momentum:  momentum,
		NumParams: nn.NumParams(probe.Params()),
	}
}

// TrainFederatedCNN runs the FedAvg comparator on the same data, partition,
// and channel.
func TrainFederatedCNN(b CNNBaseline, train, test *dataset.Dataset, part dataset.Partition, cfg fl.Config) (*fl.History, fl.Network) {
	trainer := &fl.CNNTrainer{
		Cfg:   cfg,
		Build: b.Build,
		Train: train, Test: test, Part: part,
		LR: b.LR, Momentum: b.Momentum,
	}
	return trainer.Run()
}
