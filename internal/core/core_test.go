package core

import (
	"math/rand"
	"testing"

	"fhdnn/internal/channel"
	"fhdnn/internal/dataset"
	"fhdnn/internal/fl"
	"fhdnn/internal/nn"
	"fhdnn/internal/simclr"
)

// testData builds a small 3-class image dataset and an IID partition.
func testData(t *testing.T, seed int64, numClients int) (*dataset.Dataset, *dataset.Dataset, dataset.Partition) {
	t.Helper()
	cfg := dataset.ImageConfig{
		Name: "core", Classes: 3, Channels: 1, Size: 8,
		TrainPerClass: 25, TestPerClass: 10,
		Noise: 0.3, Shift: 1, GainStd: 0.15, Seed: seed,
	}
	train, test := dataset.GenerateImages(cfg)
	part := dataset.PartitionIID(train.Len(), numClients, rand.New(rand.NewSource(seed)))
	return train, test, part
}

func testFHDnn(seed int64) *FHDnn {
	ext := NewRandomConvExtractor(seed, 1, 4, 8)
	cfg := Config{HDDim: 1024, NumClasses: 3, Seed: seed, Binarize: true}
	return New(ext, cfg)
}

func TestNewValidatesConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad config")
		}
	}()
	New(NewRandomConvExtractor(1, 1, 4, 8), Config{HDDim: 0, NumClasses: 3})
}

func TestRandomConvExtractorDeterministic(t *testing.T) {
	train, _, _ := testData(t, 1, 3)
	a := NewRandomConvExtractor(7, 1, 4, 8).Features(train.X)
	b := NewRandomConvExtractor(7, 1, 4, 8).Features(train.X)
	if !a.Equal(b, 0) {
		t.Fatal("same-seed extractors must agree")
	}
	c := NewRandomConvExtractor(8, 1, 4, 8).Features(train.X)
	if a.Equal(c, 1e-9) {
		t.Fatal("different seeds must differ")
	}
}

func TestExtractorChunkingMatchesWholeBatch(t *testing.T) {
	// more samples than extractBatch to exercise the chunk loop
	cfg := dataset.ImageConfig{
		Name: "chunk", Classes: 2, Channels: 1, Size: 8,
		TrainPerClass: 40, TestPerClass: 1,
		Noise: 0.2, Shift: 1, GainStd: 0.1, Seed: 2,
	}
	train, _ := dataset.GenerateImages(cfg)
	ext := NewRandomConvExtractor(3, 1, 4, 8)
	whole := ext.Features(train.X)
	// features of a subset must equal the corresponding rows
	sub := train.Subset([]int{0, 65, 79})
	subFeats := ext.Features(sub.X)
	for j := 0; j < ext.Dim(); j++ {
		if subFeats.At(0, j) != whole.At(0, j) ||
			subFeats.At(1, j) != whole.At(65, j) ||
			subFeats.At(2, j) != whole.At(79, j) {
			t.Fatal("chunked extraction mismatch")
		}
	}
}

func TestCentralizedTrainingLearns(t *testing.T) {
	train, test, _ := testData(t, 3, 3)
	f := testFHDnn(3)
	f.TrainCentralized(train, 5)
	if acc := f.Accuracy(test); acc < 0.6 {
		t.Fatalf("centralized FHDnn accuracy %v, want > 0.6 (chance 0.33)", acc)
	}
}

func TestPredictMatchesAccuracy(t *testing.T) {
	train, test, _ := testData(t, 4, 3)
	f := testFHDnn(4)
	f.TrainCentralized(train, 3)
	preds := f.Predict(test.X)
	correct := 0
	for i, p := range preds {
		if p == test.Labels[i] {
			correct++
		}
	}
	if got := float64(correct) / float64(test.Len()); got != f.Accuracy(test) {
		t.Fatalf("Predict/Accuracy disagree: %v vs %v", got, f.Accuracy(test))
	}
}

func TestFederatedFHDnnLearnsFast(t *testing.T) {
	train, test, part := testData(t, 5, 5)
	f := testFHDnn(5)
	res := f.TrainFederated(train, test, part, fl.Config{
		NumClients: 5, ClientFraction: 0.4, LocalEpochs: 2, BatchSize: 10, Rounds: 5, Seed: 5,
	})
	if res.History.Rounds[0].TestAccuracy < 0.5 {
		t.Fatalf("round-1 accuracy %v: FHDnn should converge almost immediately",
			res.History.Rounds[0].TestAccuracy)
	}
	// the trained model must be installed back into f
	if f.Accuracy(test) != res.History.FinalAccuracy() {
		t.Fatal("trained model not installed")
	}
}

func TestFederatedFHDnnSurvivesPacketLoss(t *testing.T) {
	// The robustness argument is dimensional: erased packets attenuate
	// blocks of the prototypes, and the cosine distortion shrinks as d
	// grows and as more participants are averaged. Test near paper
	// conditions: a generous d and most clients participating.
	train, test, part := testData(t, 6, 5)
	build := func() *FHDnn {
		ext := NewRandomConvExtractor(6, 1, 4, 8)
		return New(ext, Config{HDDim: 8192, NumClasses: 3, Seed: 6, Binarize: true})
	}
	clean := build().TrainFederated(train, test, part, fl.Config{
		NumClients: 5, ClientFraction: 0.8, LocalEpochs: 2, BatchSize: 10, Rounds: 8, Seed: 6,
	})
	lossy := build().TrainFederated(train, test, part, fl.Config{
		NumClients: 5, ClientFraction: 0.8, LocalEpochs: 2, BatchSize: 10, Rounds: 8, Seed: 6,
		Uplink: channel.PacketLoss{Rate: 0.2, PacketBytes: 512},
	})
	if lossy.History.FinalAccuracy() < clean.History.FinalAccuracy()-0.1 {
		t.Fatalf("20%% packet loss should barely hurt FHDnn: clean %v vs lossy %v",
			clean.History.FinalAccuracy(), lossy.History.FinalAccuracy())
	}
}

func TestCNNBaselineAccounting(t *testing.T) {
	b := NewResNetBaseline(nn.ResNetConfig{InChannels: 1, NumClasses: 3, BaseWidth: 4, Blocks: []int{1, 1}}, 0.05, 0.9)
	if b.NumParams <= 0 {
		t.Fatal("baseline must count parameters")
	}
	b2 := NewMNISTCNNBaseline(nn.MNISTCNNConfig{
		InChannels: 1, ImgSize: 8, NumClasses: 3, C1: 2, C2: 4, Hidden: 8}, 0.05, 0.9)
	if b2.NumParams <= 0 {
		t.Fatal("MNIST baseline must count parameters")
	}
}

func TestTrainFederatedCNNRuns(t *testing.T) {
	train, test, part := testData(t, 7, 4)
	b := NewMNISTCNNBaseline(nn.MNISTCNNConfig{
		InChannels: 1, ImgSize: 8, NumClasses: 3, C1: 4, C2: 8, Hidden: 16}, 0.05, 0.9)
	hist, net := TrainFederatedCNN(b, train, test, part, fl.Config{
		NumClients: 4, ClientFraction: 0.5, LocalEpochs: 2, BatchSize: 10, Rounds: 6, Seed: 7,
	})
	if hist.FinalAccuracy() < 0.5 {
		t.Fatalf("CNN baseline accuracy %v", hist.FinalAccuracy())
	}
	if net == nil {
		t.Fatal("missing trained network")
	}
}

// The paper's central comparison, end to end at miniature scale: on the
// same unreliable channel, FHDnn keeps its accuracy while the CNN baseline
// collapses.
func TestFHDnnBeatsCNNUnderBitErrors(t *testing.T) {
	train, test, part := testData(t, 8, 4)
	flCfg := fl.Config{NumClients: 4, ClientFraction: 0.5, LocalEpochs: 2, BatchSize: 10, Rounds: 6, Seed: 8}

	cnnCfg := flCfg
	cnnCfg.Uplink = channel.BitErrorFloat32{PE: 1e-4}
	b := NewMNISTCNNBaseline(nn.MNISTCNNConfig{
		InChannels: 1, ImgSize: 8, NumClasses: 3, C1: 4, C2: 8, Hidden: 16}, 0.05, 0.9)
	cnnHist, _ := TrainFederatedCNN(b, train, test, part, cnnCfg)

	hdCfg := flCfg
	hdCfg.Uplink = channel.BitErrorQuantized{PE: 1e-4, Bits: 32, BlockLen: 1024}
	f := testFHDnn(8)
	hdRes := f.TrainFederated(train, test, part, hdCfg)

	if hdRes.History.FinalAccuracy() <= cnnHist.FinalAccuracy() {
		t.Fatalf("under bit errors FHDnn (%v) should beat the CNN (%v)",
			hdRes.History.FinalAccuracy(), cnnHist.FinalAccuracy())
	}
}

func TestSimCLRExtractorEndToEnd(t *testing.T) {
	train, test, part := testData(t, 9, 3)
	cfg := simclr.DefaultConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 15
	cfg.Seed = 9
	ext := NewSimCLRExtractor(train, 2, cfg)
	f := New(ext, Config{HDDim: 1024, NumClasses: 3, Seed: 9, Binarize: true})
	res := f.TrainFederated(train, test, part, fl.Config{
		NumClients: 3, ClientFraction: 1, LocalEpochs: 2, BatchSize: 10, Rounds: 3, Seed: 9,
	})
	if res.History.FinalAccuracy() < 0.5 {
		t.Fatalf("SimCLR-extractor FHDnn accuracy %v", res.History.FinalAccuracy())
	}
}

func TestUpdateSizeBytes(t *testing.T) {
	f := testFHDnn(10)
	if f.UpdateSizeBytes() != 3*1024*4 {
		t.Fatalf("update size %d", f.UpdateSizeBytes())
	}
}
