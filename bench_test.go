// Benchmarks that regenerate every table and figure of the FHDnn paper's
// evaluation section. Each benchmark runs the corresponding experiment
// driver at the Small scale and reports its headline numbers as custom
// metrics, so `go test -bench=. -benchmem` both times the harness and
// re-derives the paper's comparisons. Set FHDNN_SCALE=medium for the
// heavier configuration.
package fhdnn_test

import (
	"os"
	"testing"

	"fhdnn/internal/experiments"
)

func benchScale() experiments.Scale {
	switch os.Getenv("FHDNN_SCALE") {
	case "medium":
		return experiments.Medium()
	case "paper":
		return experiments.Paper()
	}
	s := experiments.Small()
	// keep each bench iteration well under a second where possible
	s.TrainPerClass = 20
	s.TestPerClass = 8
	s.Rounds = 8
	return s
}

// BenchmarkFig4NoiseRobustness regenerates Figure 4: Gaussian noise added
// in HD space is suppressed by the linear decode.
func BenchmarkFig4NoiseRobustness(b *testing.B) {
	s := benchScale()
	var suppression float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4NoiseRobustness(s, []float64{5, 10, 20})
		suppression = rows[0].Suppression
	}
	b.ReportMetric(suppression, "suppression@5dB")
}

// BenchmarkFig5PartialInfo regenerates Figure 5: similarity retention and
// accuracy under hypervector dimension removal.
func BenchmarkFig5PartialInfo(b *testing.B) {
	s := benchScale()
	var acc80 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5PartialInfo(s, []float64{0, 0.8})
		acc80 = rows[1].Accuracy
	}
	b.ReportMetric(acc80, "acc@80%removed")
}

// BenchmarkFig6Hyperparams regenerates Figure 6: the hyperparameter sweep
// (reduced grid) with mean curves and spread.
func BenchmarkFig6Hyperparams(b *testing.B) {
	s := benchScale()
	s.Rounds = 6
	grid := experiments.HyperGrid{E: []int{1, 2}, B: []int{10}, C: []float64{0.2, 0.5}}
	var hdRounds, cnnRounds float64
	for i := 0; i < b.N; i++ {
		results := experiments.Fig6Hyperparams(s, grid, 0)
		for _, r := range results {
			if r.Distribution != "iid" {
				continue
			}
			if r.Model == "FHDnn" {
				hdRounds = float64(r.RoundsToTarget)
			} else {
				cnnRounds = float64(r.RoundsToTarget)
			}
		}
	}
	b.ReportMetric(hdRounds, "FHDnn-rounds-to-target")
	b.ReportMetric(cnnRounds, "CNN-rounds-to-target")
}

// BenchmarkFig7Accuracy regenerates Figure 7 per dataset: accuracy of
// FHDnn vs the CNN baseline over communication rounds.
func BenchmarkFig7Accuracy(b *testing.B) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			s := benchScale()
			var hd, cnn float64
			for i := 0; i < b.N; i++ {
				res := experiments.Fig7Accuracy(s, []string{name})
				hd = res[0].FHDnn.FinalAccuracy()
				cnn = res[0].ResNet.FinalAccuracy()
			}
			b.ReportMetric(hd, "FHDnn-acc")
			b.ReportMetric(cnn, "CNN-acc")
		})
	}
}

// BenchmarkTable1EdgeDevices regenerates Table 1 from the calibrated device
// models.
func BenchmarkTable1EdgeDevices(b *testing.B) {
	var rpiFHD, rpiCNN float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1EdgeDevices()
		for _, r := range rows {
			if r.Device == "Raspberry Pi" {
				rpiFHD, rpiCNN = r.FHDnnSec, r.ResNetSec
			}
		}
	}
	b.ReportMetric(rpiFHD, "RPi-FHDnn-s")
	b.ReportMetric(rpiCNN, "RPi-ResNet-s")
}

// BenchmarkFig8Unreliable regenerates Figure 8, one sub-benchmark per error
// model (packet loss / Gaussian noise / bit errors), IID split.
func BenchmarkFig8Unreliable(b *testing.B) {
	cases := []struct {
		name   string
		levels experiments.Fig8Levels
	}{
		{"packetloss", experiments.Fig8Levels{PacketLoss: []float64{0.2}}},
		{"gaussian", experiments.Fig8Levels{SNRdB: []float64{10}}},
		{"biterrors", experiments.Fig8Levels{BER: []float64{1e-4}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := benchScale()
			s.Rounds = 6
			var hd, cnn float64
			for i := 0; i < b.N; i++ {
				rows := experiments.Fig8Unreliable(s, c.levels, []string{"iid"})
				hd = rows[0].FHDnnAcc
				cnn = rows[0].CNNAcc
			}
			b.ReportMetric(hd, "FHDnn-acc")
			b.ReportMetric(cnn, "CNN-acc")
		})
	}
}

// BenchmarkComm regenerates the Sec. 4.4 communication-efficiency numbers
// at the paper's link constants.
func BenchmarkComm(b *testing.B) {
	var dataRatio, timeRatio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.CommEfficiency(25, 75, 100)
		dataRatio = float64(rows[1].DataBytes) / float64(rows[0].DataBytes)
		timeRatio = float64(rows[1].ClockTime) / float64(rows[0].ClockTime)
	}
	b.ReportMetric(dataRatio, "data-ratio(x)")
	b.ReportMetric(timeRatio, "clocktime-ratio(x)")
}

// BenchmarkEq4SNRGain regenerates the Eq. 4 verification: bundling N noisy
// client models improves SNR by 10*log10(N) dB.
func BenchmarkEq4SNRGain(b *testing.B) {
	s := benchScale()
	var gain16 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Eq4NoisySNRGain(s, []int{1, 16}, 10)
		gain16 = rows[1].GainDB
	}
	b.ReportMetric(gain16, "gain@N=16(dB)")
}

// BenchmarkConvergence regenerates the Sec. 3.6 convergence diagnostics.
func BenchmarkConvergence(b *testing.B) {
	s := benchScale()
	var hdPlateau float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Convergence(s, 0.1)
		hdPlateau = float64(rows[0].RoundsToPlateau)
	}
	b.ReportMetric(hdPlateau, "FHDnn-plateau-round")
}

// BenchmarkCompressionBaselines regenerates the compressed-CNN vs FHDnn
// comparison.
func BenchmarkCompressionBaselines(b *testing.B) {
	s := benchScale()
	s.Rounds = 5
	var fhd, fp16 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.CompressionComparison(s)
		for _, r := range rows {
			switch r.Strategy {
			case "FHDnn":
				fhd = r.Accuracy
			case "CNN float16":
				fp16 = r.Accuracy
			}
		}
	}
	b.ReportMetric(fhd, "FHDnn-acc")
	b.ReportMetric(fp16, "CNN-fp16-acc")
}

// BenchmarkAblationDim sweeps hypervector dimensionality (DESIGN.md Sec 4).
func BenchmarkAblationDim(b *testing.B) {
	s := benchScale()
	s.Rounds = 5
	var accHigh float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationDim(s, []int{512, 4096})
		accHigh = rows[1].Accuracy
	}
	b.ReportMetric(accHigh, "acc@d=4096")
}

// BenchmarkAblationSign compares bipolar vs raw random-projection encoding.
func BenchmarkAblationSign(b *testing.B) {
	s := benchScale()
	s.Rounds = 5
	var sign, raw float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationSign(s)
		sign, raw = rows[0].Accuracy, rows[1].Accuracy
	}
	b.ReportMetric(sign, "acc-sign")
	b.ReportMetric(raw, "acc-raw")
}

// BenchmarkAblationQuantizer isolates the Sec. 3.5.2 quantizer under bit
// errors.
func BenchmarkAblationQuantizer(b *testing.B) {
	s := benchScale()
	s.Rounds = 5
	var with, without float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationQuantizer(s, 1e-3)
		with, without = rows[0].Accuracy, rows[1].Accuracy
	}
	b.ReportMetric(with, "acc-quantized")
	b.ReportMetric(without, "acc-float32")
}

// BenchmarkAblationRefine sweeps local refinement epochs.
func BenchmarkAblationRefine(b *testing.B) {
	s := benchScale()
	s.Rounds = 5
	var acc float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationRefine(s, []int{1, 4})
		acc = rows[1].Accuracy
	}
	b.ReportMetric(acc, "acc@E=4")
}

// BenchmarkAblationExtractor compares random-conv and SimCLR-pretrained
// frozen extractors.
func BenchmarkAblationExtractor(b *testing.B) {
	s := benchScale()
	s.Rounds = 4
	var rnd, sim float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationExtractor(s, 3)
		rnd, sim = rows[0].Accuracy, rows[1].Accuracy
	}
	b.ReportMetric(rnd, "acc-randconv")
	b.ReportMetric(sim, "acc-simclr")
}
