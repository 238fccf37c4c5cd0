package experiments

import (
	"fmt"

	"fhdnn/internal/channel"
	"fhdnn/internal/core"
	"fhdnn/internal/fl"
	"fhdnn/internal/hdc"
	"fhdnn/internal/simclr"
)

// AblationRow is one configuration of a design-choice sweep.
type AblationRow struct {
	Setting  string
	Accuracy float64
	Extra    string // setting-specific annotation (e.g. update size)
}

// AblationDim sweeps the hypervector dimensionality d — the main
// capacity/robustness/communication trade-off of HD computing.
func AblationDim(s Scale, dims []int) []AblationRow {
	if len(dims) == 0 {
		dims = []int{256, 1024, 4096}
	}
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+40)
	rows := make([]AblationRow, 0, len(dims))
	for _, d := range dims {
		sc := s
		sc.HDDim = d
		f := sc.NewFHDnn(train)
		res := f.TrainFederated(train, test, part, sc.FLConfig(s.Seed+41))
		rows = append(rows, AblationRow{
			Setting:  fmt.Sprintf("d=%d", d),
			Accuracy: res.History.FinalAccuracy(),
			Extra:    fmtBytes(int64(f.UpdateSizeBytes())),
		})
	}
	return rows
}

// AblationSign compares the paper's bipolar sign(Phi z) encoding against
// the raw projection Phi z.
func AblationSign(s Scale) []AblationRow {
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+42)
	rows := make([]AblationRow, 0, 2)
	for _, binarize := range []bool{true, false} {
		ext := core.NewRandomConvExtractor(s.Seed, train.X.Dim(1), extractWidth, s.ImgSize)
		cfg := core.Config{HDDim: s.HDDim, NumClasses: train.NumClasses, Seed: s.Seed, Binarize: binarize}
		f := core.New(ext, cfg)
		res := f.TrainFederated(train, test, part, s.FLConfig(s.Seed+43))
		name := "sign(Phi z)"
		if !binarize {
			name = "raw Phi z"
		}
		rows = append(rows, AblationRow{Setting: name, Accuracy: res.History.FinalAccuracy()})
	}
	return rows
}

// AblationQuantizer isolates the Sec. 3.5.2 quantizer: federated FHDnn
// under bit errors with and without the scale-up/scale-down protection.
// Without the quantizer, bit errors hit raw float32 prototypes.
func AblationQuantizer(s Scale, ber float64) []AblationRow {
	if ber <= 0 {
		ber = 1e-4
	}
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+44)
	rows := make([]AblationRow, 0, 2)
	for _, quantized := range []bool{true, false} {
		cfg := s.FLConfig(s.Seed + 45)
		if quantized {
			cfg.Uplink = channel.BitErrorQuantized{PE: ber, Bits: 32, BlockLen: s.HDDim}
		} else {
			cfg.Uplink = channel.BitErrorFloat32{PE: ber}
		}
		f := s.NewFHDnn(train)
		res := f.TrainFederated(train, test, part, cfg)
		name := "with quantizer"
		if !quantized {
			name = "raw float32"
		}
		rows = append(rows, AblationRow{
			Setting:  name,
			Accuracy: res.History.FinalAccuracy(),
			Extra:    fmt.Sprintf("BER=%g", ber),
		})
	}
	return rows
}

// AblationRefine sweeps the number of local refinement epochs E, isolating
// one-shot bundling (E would be 0, approximated by E=1 with converged
// bundling) against iterative refinement.
func AblationRefine(s Scale, epochs []int) []AblationRow {
	if len(epochs) == 0 {
		epochs = []int{1, 2, 4, 8}
	}
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+46)
	rows := make([]AblationRow, 0, len(epochs))
	for _, e := range epochs {
		cfg := s.FLConfig(s.Seed + 47)
		cfg.LocalEpochs = e
		f := s.NewFHDnn(train)
		res := f.TrainFederated(train, test, part, cfg)
		rows = append(rows, AblationRow{
			Setting:  fmt.Sprintf("E=%d", e),
			Accuracy: res.History.FinalAccuracy(),
		})
	}
	return rows
}

// AblationAdaptive compares the paper's fixed refinement rule against
// OnlineHD-style similarity-weighted refinement (an extension the paper
// leaves open).
func AblationAdaptive(s Scale) []AblationRow {
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+50)
	rows := make([]AblationRow, 0, 2)
	for _, lr := range []float32{0, 1} {
		f := s.NewFHDnn(train)
		trainer := &fl.HDTrainer{
			Cfg:        s.FLConfig(s.Seed + 51),
			Encoded:    f.EncodeDataset(train),
			Labels:     train.Labels,
			TestEnc:    f.EncodeDataset(test),
			TestLabels: test.Labels,
			NumClasses: train.NumClasses,
			Part:       part,
			AdaptiveLR: lr,
		}
		hist, _ := trainer.Run()
		name := "fixed rule"
		if lr != 0 {
			name = "adaptive (OnlineHD)"
		}
		rows = append(rows, AblationRow{Setting: name, Accuracy: hist.FinalAccuracy()})
	}
	return rows
}

// AblationExtractor compares the frozen random-conv extractor against a
// SimCLR-pretrained one of the same architecture (DESIGN.md substitution
// #1): pretraining should help, and neither is ever transmitted.
func AblationExtractor(s Scale, pretrainEpochs int) []AblationRow {
	if pretrainEpochs <= 0 {
		pretrainEpochs = 5
	}
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+48)
	rows := make([]AblationRow, 0, 2)

	run := func(name string, ext *core.NetworkExtractor) {
		cfg := core.Config{HDDim: s.HDDim, NumClasses: train.NumClasses, Seed: s.Seed, Binarize: true}
		f := core.New(ext, cfg)
		res := f.TrainFederated(train, test, part, s.FLConfig(s.Seed+49))
		rows = append(rows, AblationRow{Setting: name, Accuracy: res.History.FinalAccuracy()})
	}

	run("random conv", core.NewRandomConvExtractor(s.Seed, train.X.Dim(1), extractWidth, s.ImgSize))

	simCfg := simclr.DefaultConfig()
	simCfg.Epochs = pretrainEpochs
	simCfg.Seed = s.Seed
	run("simclr pretrained", core.NewSimCLRExtractor(train, extractWidth, simCfg))
	return rows
}

// AblationBursty compares i.i.d. packet erasure against Gilbert-Elliott
// burst losses at the same average rate: bursts erase contiguous stretches
// of the update, probing whether the holographic dispersal still protects
// the model when losses are correlated (real LPWAN links are bursty).
func AblationBursty(s Scale, avgRate float64) []AblationRow {
	if avgRate <= 0 {
		avgRate = 0.2
	}
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+54)
	rows := make([]AblationRow, 0, 3)
	run := func(name string, up channel.Channel) {
		cfg := s.FLConfig(s.Seed + 55)
		cfg.Uplink = up
		f := s.NewFHDnn(train)
		res := f.TrainFederated(train, test, part, cfg)
		rows = append(rows, AblationRow{Setting: name, Accuracy: res.History.FinalAccuracy(),
			Extra: fmt.Sprintf("avg loss %g", avgRate)})
	}
	run("clean", channel.Perfect{})
	run("iid loss", channel.PacketLoss{Rate: avgRate})
	run("bursty loss (8-packet)", channel.BurstyLoss(avgRate, 8, channel.DefaultPacketBytes))
	return rows
}

// AblationBinary compares float-prototype inference against the bit-packed
// binary model (hdc.BinaryModel): the classic HDC accuracy-for-32x-memory
// trade, which is what a flash-constrained deployment would actually ship.
func AblationBinary(s Scale) []AblationRow {
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+52)
	f := s.NewFHDnn(train)
	res := f.TrainFederated(train, test, part, s.FLConfig(s.Seed+53))
	floatAcc := res.History.FinalAccuracy()

	testEnc := f.EncodeDataset(test)
	bm := f.Model.Binarize()
	d := f.Cfg.HDDim
	queries := make([]*hdc.BinaryVector, testEnc.Dim(0))
	for i := range queries {
		queries[i] = hdc.Pack(testEnc.Data()[i*d : (i+1)*d])
	}
	binAcc := bm.Accuracy(queries, test.Labels)
	return []AblationRow{
		{Setting: "float32 prototypes", Accuracy: floatAcc,
			Extra: fmtBytes(int64(f.Model.UpdateSizeBytes(4)))},
		{Setting: "bit-packed prototypes", Accuracy: binAcc,
			Extra: fmtBytes(int64(bm.SizeBytes()))},
	}
}

// AblationTable renders ablation rows.
func AblationTable(title string, rows []AblationRow) *Table {
	t := &Table{Title: title, Header: []string{"setting", "accuracy", "notes"}}
	for _, r := range rows {
		t.AddRowf(r.Setting, r.Accuracy, r.Extra)
	}
	return t
}
