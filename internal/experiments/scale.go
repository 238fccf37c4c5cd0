// Package experiments contains one driver per table and figure of the FHDnn
// paper's evaluation (Sec. 4). Each driver builds its workload from a Scale
// (small CI-friendly defaults or paper-shaped settings), runs FHDnn and the
// CNN comparator through identical data, partitions, and channels, and
// returns structured rows that the CLI, the examples, and the benchmark
// harness print.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"

	"fhdnn/internal/core"
	"fhdnn/internal/dataset"
	"fhdnn/internal/fl"
	"fhdnn/internal/nn"
)

// The extractor width and the CNN comparator's SGD settings are the same
// at every scale.
const (
	extractWidth = 8    // random-conv feature extractor width
	cnnLR        = 0.05 // FedAvg comparator learning rate
	cnnMomentum  = 0.9
)

// newSeededRand is a shorthand for building deterministic generators.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Scale is the knob set that trades fidelity for runtime. The paper's
// setup (32x32 CIFAR, ResNet-18 at width 64, 100 clients, 100 rounds,
// d=10000) takes days of pure-Go CPU time; Small() reproduces every
// comparison shape in seconds.
type Scale struct {
	ImgSize       int
	TrainPerClass int
	TestPerClass  int
	NumClients    int
	Rounds        int
	HDDim         int
	CNNBaseWidth  int // ResNet base width for the FedAvg comparator
	CNNBlocks     []int
	Seed          int64
}

// Small returns the fast defaults used by tests and benchmarks.
func Small() Scale {
	return Scale{
		ImgSize:       8,
		TrainPerClass: 30,
		TestPerClass:  10,
		NumClients:    10,
		Rounds:        12,
		HDDim:         2048,
		CNNBaseWidth:  4,
		CNNBlocks:     []int{1, 1},
		Seed:          1,
	}
}

// Medium returns a heavier configuration for overnight runs.
func Medium() Scale {
	s := Small()
	s.ImgSize = 16
	s.TrainPerClass = 100
	s.TestPerClass = 25
	s.NumClients = 20
	s.Rounds = 40
	s.HDDim = 4096
	s.CNNBaseWidth = 8
	s.CNNBlocks = []int{1, 1, 1}
	return s
}

// Paper returns the paper-shaped configuration (32x32, 100 clients,
// 100 rounds, d=10000, ResNet-18). Running the full CNN sweeps at this
// scale in pure Go takes days; it exists so the harness can be pointed at
// the original operating point.
func Paper() Scale {
	return Scale{
		ImgSize:       32,
		TrainPerClass: 500,
		TestPerClass:  100,
		NumClients:    100,
		Rounds:        100,
		HDDim:         10000,
		CNNBaseWidth:  64,
		CNNBlocks:     []int{2, 2, 2, 2},
		Seed:          1,
	}
}

// DatasetNames lists the three image benchmarks of the paper, in its order.
var DatasetNames = []string{"mnist", "fashion", "cifar10"}

// BuildDataset materializes one of the paper's datasets at this scale.
func (s Scale) BuildDataset(name string) (train, test *dataset.Dataset) {
	switch name {
	case "mnist":
		return dataset.GenerateImages(dataset.MNISTLike(s.ImgSize, s.TrainPerClass, s.TestPerClass, s.Seed))
	case "fashion":
		return dataset.GenerateImages(dataset.FashionMNISTLike(s.ImgSize, s.TrainPerClass, s.TestPerClass, s.Seed+1))
	case "cifar10":
		return dataset.GenerateImages(dataset.CIFAR10Like(s.ImgSize, s.TrainPerClass, s.TestPerClass, s.Seed+2))
	default:
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
}

// Partition builds the IID or pathological non-IID client split used
// throughout the paper.
func (s Scale) Partition(train *dataset.Dataset, iid bool, seed int64) dataset.Partition {
	rng := rand.New(rand.NewSource(seed))
	if iid {
		return dataset.PartitionIID(train.Len(), s.NumClients, rng)
	}
	return dataset.PartitionShards(train.Labels, s.NumClients, 2, rng)
}

// NewFHDnn assembles an FHDnn instance for a dataset at this scale, with
// the shared random-conv extractor (see DESIGN.md substitution #1).
func (s Scale) NewFHDnn(train *dataset.Dataset) *core.FHDnn {
	ext := core.NewRandomConvExtractor(s.Seed, train.X.Dim(1), extractWidth, s.ImgSize)
	cfg := core.Config{HDDim: s.HDDim, NumClasses: train.NumClasses, Seed: s.Seed, Binarize: true}
	return core.New(ext, cfg)
}

// NewCNNBaseline assembles the FedAvg comparator: the paper uses the
// 2-conv/2-FC network for MNIST and ResNet-18 for Fashion/CIFAR.
func (s Scale) NewCNNBaseline(name string, train *dataset.Dataset) core.CNNBaseline {
	if name == "mnist" {
		return core.NewMNISTCNNBaseline(nn.MNISTCNNConfig{
			InChannels: train.X.Dim(1), ImgSize: s.ImgSize, NumClasses: train.NumClasses,
			C1: 2 * s.CNNBaseWidth, C2: 4 * s.CNNBaseWidth, Hidden: 8 * s.CNNBaseWidth,
		}, cnnLR, cnnMomentum)
	}
	return core.NewResNetBaseline(nn.ResNetConfig{
		InChannels: train.X.Dim(1), NumClasses: train.NumClasses,
		BaseWidth: s.CNNBaseWidth, Blocks: s.CNNBlocks,
	}, cnnLR, cnnMomentum)
}

// FLConfig returns the fl.Config at this scale for the paper's default
// hyperparameters (E=2, C=0.2, B=10).
// Client simulation is parallelized across cores; results are
// worker-count independent by construction (see fl.Config.Parallel).
func (s Scale) FLConfig(seed int64) fl.Config {
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	return fl.Config{
		NumClients:     s.NumClients,
		ClientFraction: 0.2,
		LocalEpochs:    2,
		BatchSize:      10,
		Rounds:         s.Rounds,
		Seed:           seed,
		Parallel:       workers,
	}
}
