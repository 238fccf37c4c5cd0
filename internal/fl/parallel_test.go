package fl

import (
	"math/rand"
	"testing"

	"fhdnn/internal/channel"
	"fhdnn/internal/nn"
)

// Parallel simulation must be bit-identical to sequential: client
// randomness is keyed by (seed, round, id) and aggregation is ordered.
func TestHDParallelMatchesSequential(t *testing.T) {
	seq := hdSetup(t, 6, 77)
	par := hdSetup(t, 6, 77)
	par.Cfg.Parallel = 4
	par.Cfg.Uplink = channel.AWGN{SNRdB: 15}
	seq.Cfg.Uplink = channel.AWGN{SNRdB: 15}
	hSeq, mSeq := seq.Run()
	hPar, mPar := par.Run()
	if !mSeq.Prototypes.Equal(mPar.Prototypes, 0) {
		t.Fatal("parallel HD training must produce identical models")
	}
	a, b := hSeq.Accuracies(), hPar.Accuracies()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: %v vs %v", i+1, a[i], b[i])
		}
	}
}

func TestCNNParallelMatchesSequential(t *testing.T) {
	train, test, part := smallCNNSetup(t, 4)
	build := func(rng *rand.Rand) Network {
		return nn.NewMNISTCNN(rng, nn.MNISTCNNConfig{
			InChannels: 1, ImgSize: 8, NumClasses: 3, C1: 2, C2: 4, Hidden: 8})
	}
	run := func(workers int) []float32 {
		tr := &CNNTrainer{
			Cfg: Config{NumClients: 4, ClientFraction: 0.75, LocalEpochs: 1, BatchSize: 10,
				Rounds: 3, Seed: 9, Parallel: workers,
				Uplink: channel.PacketLoss{Rate: 0.1, PacketBytes: 64}},
			Build: build, Train: train, Test: test, Part: part, LR: 0.05, Momentum: 0.9,
		}
		_, net := tr.Run()
		return nn.FlattenParams(net.Params())
	}
	a, b := run(1), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weight %d differs between sequential and parallel runs", i)
		}
	}
}
