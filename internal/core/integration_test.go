package core

import (
	"bytes"
	"math/rand"
	"testing"

	"fhdnn/internal/channel"
	"fhdnn/internal/dataset"
	"fhdnn/internal/fl"
	"fhdnn/internal/hdc"
	"fhdnn/internal/simclr"
)

// TestFullPipeline is the capstone integration test: the entire FHDnn
// lifecycle in one pass —
//
//	SimCLR pretraining -> frozen extractor -> federated bundling over a
//	lossy uplink -> checkpoint round trip -> binarized edge inference.
//
// Every stage must compose with the others, which unit tests alone cannot
// guarantee.
func TestFullPipeline(t *testing.T) {
	const seed = 77
	cfgData := dataset.ImageConfig{
		Name: "pipe", Classes: 4, Channels: 1, Size: 8,
		TrainPerClass: 25, TestPerClass: 8,
		Noise: 0.3, Shift: 1, GainStd: 0.15, Seed: seed,
	}
	train, test := dataset.GenerateImages(cfgData)

	// 1. self-supervised pretraining (no labels touched)
	simCfg := simclr.DefaultConfig()
	simCfg.Epochs = 4
	simCfg.BatchSize = 20
	simCfg.Seed = seed
	ext := NewSimCLRExtractor(train, 2, simCfg)

	// 2. assemble FHDnn and train federated over 20% packet loss
	f := New(ext, Config{HDDim: 2048, NumClasses: 4, Seed: seed, Binarize: true})
	part := dataset.PartitionShards(train.Labels, 5, 2, rand.New(rand.NewSource(seed))) // non-IID
	res := f.TrainFederated(train, test, part, fl.Config{
		NumClients: 5, ClientFraction: 0.8, LocalEpochs: 2, BatchSize: 10,
		Rounds: 6, Seed: seed,
		Uplink:   channel.PacketLoss{Rate: 0.2},
		Parallel: 3,
	})
	acc := res.History.FinalAccuracy()
	if acc < 0.5 { // chance is 0.25
		t.Fatalf("pipeline accuracy %v too low", acc)
	}

	// 3. checkpoint round trip into a freshly assembled model
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ext2 := NewSimCLRExtractor(train, 2, func() simclr.Config {
		c := simCfg
		c.Seed = seed + 1 // different weights until Load overwrites them
		c.Epochs = 1
		return c
	}())
	g := New(ext2, Config{HDDim: 2048, NumClasses: 4, Seed: seed + 1, Binarize: true})
	if err := g.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := g.Accuracy(test); got != acc {
		t.Fatalf("restored accuracy %v, want %v", got, acc)
	}

	// 4. binarize for edge inference: 32x smaller, nearly as accurate
	testEnc := g.EncodeDataset(test)
	bm := g.Model.Binarize()
	queries := make([]*hdc.BinaryVector, testEnc.Dim(0))
	for i := range queries {
		queries[i] = hdc.Pack(testEnc.Data()[i*2048 : (i+1)*2048])
	}
	binAcc := bm.Accuracy(queries, test.Labels)
	if binAcc < acc-0.15 {
		t.Fatalf("binarized accuracy %v lost too much vs %v", binAcc, acc)
	}
	if bm.SizeBytes() >= g.Model.UpdateSizeBytes(4)/16 {
		t.Fatalf("binary model %dB not small enough vs %dB", bm.SizeBytes(), g.Model.UpdateSizeBytes(4))
	}
}
