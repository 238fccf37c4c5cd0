package fl

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fhdnn/internal/channel"
	"fhdnn/internal/dataset"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
	"fhdnn/internal/nn"
	"fhdnn/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	good := Config{NumClients: 10, ClientFraction: 0.2, LocalEpochs: 1, BatchSize: 8, Rounds: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if good.Uplink == nil {
		t.Fatal("Validate must default the uplink")
	}
	bad := []Config{
		{NumClients: 0, ClientFraction: 0.2, LocalEpochs: 1, BatchSize: 8, Rounds: 5},
		{NumClients: 10, ClientFraction: 0, LocalEpochs: 1, BatchSize: 8, Rounds: 5},
		{NumClients: 10, ClientFraction: 1.5, LocalEpochs: 1, BatchSize: 8, Rounds: 5},
		{NumClients: 10, ClientFraction: 0.2, LocalEpochs: 0, BatchSize: 8, Rounds: 5},
		{NumClients: 10, ClientFraction: 0.2, LocalEpochs: 1, BatchSize: 0, Rounds: 5},
		{NumClients: 10, ClientFraction: 0.2, LocalEpochs: 1, BatchSize: 8, Rounds: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestHistoryHelpers(t *testing.T) {
	h := &History{}
	h.Append(fedcore.RoundStats{Round: 1, TestAccuracy: 0.3, BytesUplinked: 100})
	h.Append(fedcore.RoundStats{Round: 2, TestAccuracy: 0.8, BytesUplinked: 100})
	h.Append(fedcore.RoundStats{Round: 3, TestAccuracy: 0.7, BytesUplinked: 100})
	if h.FinalAccuracy() != 0.7 || h.BestAccuracy() != 0.8 {
		t.Fatal("accuracy helpers wrong")
	}
	if h.RoundsToAccuracy(0.75) != 2 {
		t.Fatalf("RoundsToAccuracy = %d", h.RoundsToAccuracy(0.75))
	}
	if h.RoundsToAccuracy(0.95) != -1 {
		t.Fatal("unreachable target must return -1")
	}
	if h.TotalBytes() != 300 {
		t.Fatalf("TotalBytes = %d", h.TotalBytes())
	}
	if len(h.Accuracies()) != 3 || h.Accuracies()[0] != 0.3 {
		t.Fatal("Accuracies wrong")
	}
	empty := &History{}
	if empty.FinalAccuracy() != 0 || empty.BestAccuracy() != 0 {
		t.Fatal("empty history accuracy must be 0")
	}
}

// smallCNNSetup builds a tiny image dataset and partition for CNN FedAvg
// tests.
func smallCNNSetup(t *testing.T, numClients int) (*dataset.Dataset, *dataset.Dataset, dataset.Partition) {
	t.Helper()
	cfg := dataset.ImageConfig{
		Name: "tiny", Classes: 3, Channels: 1, Size: 8,
		TrainPerClass: 20, TestPerClass: 10,
		Noise: 0.3, Shift: 1, GainStd: 0.1, Seed: 99,
	}
	train, test := dataset.GenerateImages(cfg)
	part := dataset.PartitionIID(train.Len(), numClients, rand.New(rand.NewSource(1)))
	return train, test, part
}

func TestCNNFedAvgLearns(t *testing.T) {
	train, test, part := smallCNNSetup(t, 4)
	trainer := &CNNTrainer{
		Cfg: Config{NumClients: 4, ClientFraction: 0.5, LocalEpochs: 2, BatchSize: 10, Rounds: 8, Seed: 5},
		Build: func(rng *rand.Rand) Network {
			return nn.NewMNISTCNN(rng, nn.MNISTCNNConfig{
				InChannels: 1, ImgSize: 8, NumClasses: 3, C1: 4, C2: 8, Hidden: 16})
		},
		Train: train, Test: test, Part: part,
		LR: 0.05, Momentum: 0.9,
	}
	hist, net := trainer.Run()
	if len(hist.Rounds) != 8 {
		t.Fatalf("got %d rounds", len(hist.Rounds))
	}
	if acc := hist.FinalAccuracy(); acc < 0.6 {
		t.Fatalf("FedAvg failed to learn: accuracy %v", acc)
	}
	if got := EvalNetwork(net, test, 16); math.Abs(got-hist.FinalAccuracy()) > 1e-9 {
		t.Fatal("returned network must match final accuracy")
	}
	if hist.Rounds[0].BytesUplinked <= 0 {
		t.Fatal("bytes accounting missing")
	}
}

func TestCNNFedAvgDeterministic(t *testing.T) {
	train, test, part := smallCNNSetup(t, 4)
	build := func(rng *rand.Rand) Network {
		return nn.NewMNISTCNN(rng, nn.MNISTCNNConfig{
			InChannels: 1, ImgSize: 8, NumClasses: 3, C1: 2, C2: 4, Hidden: 8})
	}
	run := func() []float64 {
		tr := &CNNTrainer{
			Cfg:   Config{NumClients: 4, ClientFraction: 0.5, LocalEpochs: 1, BatchSize: 10, Rounds: 3, Seed: 7},
			Build: build, Train: train, Test: test, Part: part, LR: 0.05, Momentum: 0.9,
		}
		h, _ := tr.Run()
		return h.Accuracies()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same run")
		}
	}
}

func TestCNNFedAvgPacketLossHurts(t *testing.T) {
	train, test, part := smallCNNSetup(t, 4)
	build := func(rng *rand.Rand) Network {
		return nn.NewMNISTCNN(rng, nn.MNISTCNNConfig{
			InChannels: 1, ImgSize: 8, NumClasses: 3, C1: 4, C2: 8, Hidden: 16})
	}
	clean := &CNNTrainer{
		Cfg:   Config{NumClients: 4, ClientFraction: 0.5, LocalEpochs: 2, BatchSize: 10, Rounds: 8, Seed: 5},
		Build: build, Train: train, Test: test, Part: part, LR: 0.05, Momentum: 0.9,
	}
	lossy := &CNNTrainer{
		Cfg: Config{NumClients: 4, ClientFraction: 0.5, LocalEpochs: 2, BatchSize: 10, Rounds: 8, Seed: 5,
			Uplink: channel.PacketLoss{Rate: 0.5, PacketBytes: 64}},
		Build: build, Train: train, Test: test, Part: part, LR: 0.05, Momentum: 0.9,
	}
	hClean, _ := clean.Run()
	hLossy, _ := lossy.Run()
	if hLossy.FinalAccuracy() >= hClean.FinalAccuracy() {
		t.Fatalf("50%% packet loss should hurt the CNN: clean %v vs lossy %v",
			hClean.FinalAccuracy(), hLossy.FinalAccuracy())
	}
}

// hdSetup encodes a Gaussian-cluster dataset for HD federated tests.
func hdSetup(t *testing.T, numClients int, seed int64) *HDTrainer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	train := dataset.GenerateVectors(dataset.VectorConfig{
		Name: "v", Classes: 5, Features: 16, PerClass: 40, ClassStd: 2, SampleStd: 1.0, Seed: seed})
	test := dataset.GenerateVectors(dataset.VectorConfig{
		Name: "v", Classes: 5, Features: 16, PerClass: 10, ClassStd: 2, SampleStd: 1.0, Seed: seed})
	enc := hdc.NewEncoder(rng, 1024, 16)
	part := dataset.PartitionIID(train.Len(), numClients, rng)
	return &HDTrainer{
		Cfg:        Config{NumClients: numClients, ClientFraction: 0.5, LocalEpochs: 2, BatchSize: 10, Rounds: 6, Seed: seed},
		Encoded:    enc.EncodeBatch(train.X),
		Labels:     train.Labels,
		TestEnc:    enc.EncodeBatch(test.X),
		TestLabels: test.Labels,
		NumClasses: 5,
		Part:       part,
	}
}

// Same class means for train/test: regenerate with the same seed so means
// match; GenerateVectors derives means from the seed.
func TestHDFederatedLearnsFast(t *testing.T) {
	tr := hdSetup(t, 5, 42)
	hist, model := tr.Run()
	if len(hist.Rounds) != 6 {
		t.Fatalf("rounds = %d", len(hist.Rounds))
	}
	// HD one-shot bundling should reach high accuracy in very few rounds.
	if hist.Rounds[0].TestAccuracy < 0.7 {
		t.Fatalf("HD round-1 accuracy %v, want fast convergence", hist.Rounds[0].TestAccuracy)
	}
	if model == nil || model.K != 5 {
		t.Fatal("missing final model")
	}
}

func TestHDFederatedRobustToPacketLoss(t *testing.T) {
	clean := hdSetup(t, 5, 43)
	lossy := hdSetup(t, 5, 43)
	lossy.Cfg.Uplink = channel.PacketLoss{Rate: 0.3, PacketBytes: 256}
	hClean, _ := clean.Run()
	hLossy, _ := lossy.Run()
	if hLossy.FinalAccuracy() < hClean.FinalAccuracy()-0.1 {
		t.Fatalf("HD should tolerate 30%% packet loss: clean %v vs lossy %v",
			hClean.FinalAccuracy(), hLossy.FinalAccuracy())
	}
}

func TestHDFederatedDeterministic(t *testing.T) {
	a, _ := hdSetup(t, 5, 44).Run()
	b, _ := hdSetup(t, 5, 44).Run()
	accA, accB := a.Accuracies(), b.Accuracies()
	for i := range accA {
		if accA[i] != accB[i] {
			t.Fatal("HD runs must be reproducible")
		}
	}
}

func TestHDFederatedBytesAccounting(t *testing.T) {
	tr := hdSetup(t, 5, 45)
	hist, model := tr.Run()
	perClient := int64(model.NumParams() * 4)
	for _, r := range hist.Rounds {
		if r.BytesUplinked != perClient*int64(r.Participants) {
			t.Fatalf("round %d: bytes %d, want %d x %d", r.Round, r.BytesUplinked, perClient, r.Participants)
		}
	}
}

// A round allocates no whole model per update: HDTrainer recycles its
// client replicas (made in the first round only) and a perfect uplink
// passes each update through uncopied. What is left is per round (the
// Bundle accumulator, evaluation), a fraction of a model per update.
func TestHDTrainerRoundDoesNotAllocateModels(t *testing.T) {
	if raceEnabled {
		t.Skip("hdc's pooled kernel scratch re-allocates under the race detector; the bound is asserted in non-race runs")
	}
	const k, d, clients, rounds = 10, 2048, 20, 10
	rng := rand.New(rand.NewSource(5))
	gen := func(perClass int) *dataset.Dataset {
		return dataset.GenerateVectors(dataset.VectorConfig{
			Name: "a", Classes: k, Features: 16, PerClass: perClass, ClassStd: 2, SampleStd: 1, Seed: 5})
	}
	train, test := gen(20), gen(2)
	enc := hdc.NewEncoder(rng, d, 16)
	tr := &HDTrainer{
		Cfg: Config{NumClients: clients, ClientFraction: 1, LocalEpochs: 2, BatchSize: 10,
			Rounds: rounds, Seed: 5, Parallel: 2},
		Encoded:    enc.EncodeBatch(train.X),
		Labels:     train.Labels,
		TestEnc:    enc.EncodeBatch(test.X),
		TestLabels: test.Labels,
		NumClasses: k,
		Part:       dataset.PartitionIID(train.Len(), clients, rng),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hist, _ := tr.Run()
	runtime.ReadMemStats(&after)
	updates := 0
	for _, r := range hist.Rounds {
		updates += r.Participants
	}
	if updates != clients*rounds {
		t.Fatalf("%d updates, want %d", updates, clients*rounds)
	}
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / float64(updates)
	t.Logf("%.0f B allocated per update", perUpdate)
	if model := float64(4 * k * d); perUpdate >= model/2 {
		t.Fatalf("%.0f B allocated per update, want under half a %.0f B model", perUpdate, model)
	}
}

func TestHDNonIIDStillLearns(t *testing.T) {
	tr := hdSetup(t, 10, 47)
	// overwrite the partition with a pathological shard split
	rng := rand.New(rand.NewSource(48))
	tr.Part = dataset.PartitionShards(tr.Labels, 10, 2, rng)
	tr.Cfg.Rounds = 10
	hist, _ := tr.Run()
	if hist.BestAccuracy() < 0.6 {
		t.Fatalf("non-IID HD accuracy %v too low", hist.BestAccuracy())
	}
}

func TestHDAdaptiveOptionRuns(t *testing.T) {
	tr := hdSetup(t, 4, 91)
	tr.AdaptiveLR = 0.8
	hist, _ := tr.Run()
	if hist.FinalAccuracy() < 0.7 {
		t.Fatalf("adaptive federated accuracy %v too low", hist.FinalAccuracy())
	}
}

func TestEvalNetworkEmptyDataset(t *testing.T) {
	empty := &dataset.Dataset{Name: "e", X: tensor.New(0, 1), Labels: nil, NumClasses: 2}
	if EvalNetwork(nil, empty, 4) != 0 {
		t.Fatal("empty dataset accuracy must be 0")
	}
}
