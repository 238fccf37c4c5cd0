// Package device models edge-device compute time and energy for federated
// client workloads, reproducing Table 1 of the FHDnn paper. The original
// measurements were taken on a Raspberry Pi 3b and an NVIDIA Jetson; since
// that hardware is unavailable here, each device is an analytic model —
// effective training and inference throughputs plus power draw — calibrated
// once against the paper's measured numbers. The model's value is that it
// scales: changing local epochs, dataset size, architecture width, or HD
// dimensionality moves time and energy the way the real hardware would to
// first order.
package device

import (
	"fmt"

	"fhdnn/internal/nn"
)

// Profile is a calibrated edge-device model. Throughputs are "effective"
// (measured FLOPs per second on the respective workload class), which folds
// in memory traffic, framework overhead, and (for the Jetson) GPU batching
// efficiency.
type Profile struct {
	Name string
	// TrainGFLOPS is the sustained throughput on CNN training
	// (forward+backward+update).
	TrainGFLOPS float64
	// InferGFLOPS is the sustained throughput on inference-only work
	// (frozen feature extraction and HD arithmetic).
	InferGFLOPS float64
	// TrainPowerW / InferPowerW are the average power draws in each mode.
	TrainPowerW float64
	InferPowerW float64
}

// Workload is a client-side compute bill in FLOPs, split by mode.
type Workload struct {
	TrainFLOPs float64 // backprop-style work
	InferFLOPs float64 // forward-only + HD work
}

// Time returns the modeled execution time in seconds.
func (p Profile) Time(w Workload) float64 {
	if p.TrainGFLOPS <= 0 || p.InferGFLOPS <= 0 {
		panic(fmt.Sprintf("device: profile %q not calibrated", p.Name))
	}
	return w.TrainFLOPs/(p.TrainGFLOPS*1e9) + w.InferFLOPs/(p.InferGFLOPS*1e9)
}

// Energy returns the modeled energy in joules.
func (p Profile) Energy(w Workload) float64 {
	tTrain := w.TrainFLOPs / (p.TrainGFLOPS * 1e9)
	tInfer := w.InferFLOPs / (p.InferGFLOPS * 1e9)
	return tTrain*p.TrainPowerW + tInfer*p.InferPowerW
}

// ---- FLOP accounting -------------------------------------------------

// ConvForwardFLOPs counts one convolution forward pass (2 FLOPs per MAC).
func ConvForwardFLOPs(inC, outC, outH, outW, k int) float64 {
	return 2 * float64(outC) * float64(outH) * float64(outW) * float64(inC) * float64(k) * float64(k)
}

// LinearForwardFLOPs counts one dense forward pass.
func LinearForwardFLOPs(in, out int) float64 { return 2 * float64(in) * float64(out) }

// BackwardFactor is the standard approximation that a training step costs
// ~3x a forward pass (forward + input gradient + weight gradient).
const BackwardFactor = 3.0

// ResNetForwardFLOPs walks the ResNet configuration and sums per-sample
// forward FLOPs for square inputs of the given size.
func ResNetForwardFLOPs(cfg nn.ResNetConfig, imgSize int) float64 {
	total := ConvForwardFLOPs(cfg.InChannels, cfg.BaseWidth, imgSize, imgSize, 3)
	inC := cfg.BaseWidth
	width := cfg.BaseWidth
	size := imgSize
	blocks := cfg.Blocks
	if len(blocks) == 0 {
		blocks = []int{2, 2, 2, 2}
	}
	for stage, nBlocks := range blocks {
		stride := 2
		if stage == 0 {
			stride = 1
		}
		for b := 0; b < nBlocks; b++ {
			s := 1
			if b == 0 {
				s = stride
			}
			outSize := size / s
			total += ConvForwardFLOPs(inC, width, outSize, outSize, 3)
			total += ConvForwardFLOPs(width, width, outSize, outSize, 3)
			if s != 1 || inC != width {
				total += ConvForwardFLOPs(inC, width, outSize, outSize, 1)
			}
			inC = width
			size = outSize
		}
		width *= 2
	}
	total += LinearForwardFLOPs(inC, cfg.NumClasses)
	return total
}

// HDEncodeFLOPs counts one random-projection encoding (d x n matrix-vector
// product).
func HDEncodeFLOPs(d, n int) float64 { return 2 * float64(d) * float64(n) }

// HDTrainFLOPs counts one-shot bundling plus refine epochs for `samples`
// examples over k classes: each refine epoch computes k cosine
// similarities per sample (2*k*d) and possibly two prototype updates
// (2*d). That is what hdc.Model executes per sample: its similarity kernel
// runs the k dot chains (two classes per SIMD instruction on amd64, the
// same FLOPs) plus the h·h chain, and a misprediction's update loop
// re-sums the two touched norms. Once per call, not per sample, it also
// copies the k x d prototypes into float64 class lanes and sums their
// norms in the same pass (2*k*d); that is 1/samples of the similarity
// term and is not billed.
func HDTrainFLOPs(d, k, samples, refineEpochs int) float64 {
	bundle := float64(samples) * float64(d)
	perEpoch := float64(samples) * (2*float64(k)*float64(d) + 2*float64(d))
	return bundle + float64(refineEpochs)*perEpoch
}

// ---- Client workload bills -------------------------------------------

// CNNClientWorkload bills one round of FedAvg local training: E epochs of
// forward+backward over the client's samples.
func CNNClientWorkload(forwardFLOPs float64, samples, epochs int) Workload {
	return Workload{TrainFLOPs: forwardFLOPs * BackwardFactor * float64(samples) * float64(epochs)}
}

// FHDnnClientWorkload bills one round of FHDnn local training: one frozen
// feature-extraction pass per sample (features are cached across epochs),
// HD encoding, and HD bundling/refinement.
func FHDnnClientWorkload(extractorForwardFLOPs float64, d, n, k, samples, refineEpochs int) Workload {
	infer := extractorForwardFLOPs*float64(samples) +
		HDEncodeFLOPs(d, n)*float64(samples) +
		HDTrainFLOPs(d, k, samples, refineEpochs)
	return Workload{InferFLOPs: infer}
}

// ---- Calibrated profiles ----------------------------------------------

// ReferenceWorkload is the Table 1 scenario used for calibration: one
// client's local training in the paper's CIFAR-10 setup — 500 local samples
// (50000 examples over 100 clients), E=2 local epochs, full-width ResNet-18
// on 32x32x3 inputs, HD dimension 10000.
type ReferenceWorkload struct {
	Samples      int
	Epochs       int
	ImgSize      int
	HDDim        int
	NumClasses   int
	FeatureDim   int
	ResNetConfig nn.ResNetConfig
}

// PaperReference returns the Table 1 calibration scenario.
func PaperReference() ReferenceWorkload {
	return ReferenceWorkload{
		Samples: 500, Epochs: 2, ImgSize: 32, HDDim: 10000,
		NumClasses: 10, FeatureDim: 512,
		ResNetConfig: nn.DefaultResNet18(3, 10),
	}
}

// CNNWorkload bills the reference CNN client round.
func (r ReferenceWorkload) CNNWorkload() Workload {
	fwd := ResNetForwardFLOPs(r.ResNetConfig, r.ImgSize)
	return CNNClientWorkload(fwd, r.Samples, r.Epochs)
}

// FHDnnWorkload bills the reference FHDnn client round.
func (r ReferenceWorkload) FHDnnWorkload() Workload {
	fwd := ResNetForwardFLOPs(r.ResNetConfig, r.ImgSize)
	return FHDnnClientWorkload(fwd, r.HDDim, r.FeatureDim, r.NumClasses, r.Samples, r.Epochs)
}

// Table1Measurement holds one row of the paper's Table 1.
type Table1Measurement struct {
	FHDnnSec, ResNetSec       float64
	FHDnnJoules, ResNetJoules float64
}

// PaperTable1 returns the measured values from the paper.
func PaperTable1() map[string]Table1Measurement {
	return map[string]Table1Measurement{
		"Raspberry Pi":  {FHDnnSec: 858.72, ResNetSec: 1328.04, FHDnnJoules: 4418.4, ResNetJoules: 6742.8},
		"Nvidia Jetson": {FHDnnSec: 15.96, ResNetSec: 90.55, FHDnnJoules: 96.17, ResNetJoules: 497.572},
	}
}

// CalibrateProfile fits a Profile so that the reference workloads reproduce
// a Table 1 row exactly.
func CalibrateProfile(name string, ref ReferenceWorkload, m Table1Measurement) Profile {
	cnn := ref.CNNWorkload()
	fhd := ref.FHDnnWorkload()
	return Profile{
		Name:        name,
		TrainGFLOPS: cnn.TrainFLOPs / m.ResNetSec / 1e9,
		InferGFLOPS: fhd.InferFLOPs / m.FHDnnSec / 1e9,
		TrainPowerW: m.ResNetJoules / m.ResNetSec,
		InferPowerW: m.FHDnnJoules / m.FHDnnSec,
	}
}

// RaspberryPi3 returns the calibrated Raspberry Pi Model 3b profile.
func RaspberryPi3() Profile {
	return CalibrateProfile("Raspberry Pi", PaperReference(), PaperTable1()["Raspberry Pi"])
}

// JetsonNano returns the calibrated NVIDIA Jetson profile.
func JetsonNano() Profile {
	return CalibrateProfile("Nvidia Jetson", PaperReference(), PaperTable1()["Nvidia Jetson"])
}
