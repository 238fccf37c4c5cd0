package device

import (
	"math"
	"testing"

	"fhdnn/internal/nn"
)

func TestConvForwardFLOPs(t *testing.T) {
	// 2 * outC*outH*outW * inC*k^2
	got := ConvForwardFLOPs(3, 8, 4, 4, 3)
	want := 2.0 * 8 * 4 * 4 * 3 * 9
	if got != want {
		t.Fatalf("ConvForwardFLOPs = %v, want %v", got, want)
	}
}

func TestLinearForwardFLOPs(t *testing.T) {
	if got := LinearForwardFLOPs(512, 10); got != 10240 {
		t.Fatalf("LinearForwardFLOPs = %v", got)
	}
}

func TestResNet18FLOPsMatchLiterature(t *testing.T) {
	// CIFAR ResNet-18 is commonly quoted at ~0.56 GMACs = ~1.1 GFLOPs
	// per forward pass at 32x32.
	got := ResNetForwardFLOPs(nn.DefaultResNet18(3, 10), 32)
	if got < 1.0e9 || got > 1.3e9 {
		t.Fatalf("ResNet-18 forward FLOPs = %.3g, want ~1.1e9", got)
	}
}

func TestResNetFLOPsScaleWithWidth(t *testing.T) {
	full := ResNetForwardFLOPs(nn.DefaultResNet18(3, 10), 32)
	tiny := ResNetForwardFLOPs(nn.TinyResNet18(3, 10), 32)
	// FLOPs scale ~quadratically with width (64 -> 8 is 8x narrower).
	ratio := full / tiny
	if ratio < 30 || ratio > 90 {
		t.Fatalf("width scaling ratio %v, want ~64", ratio)
	}
}

func TestHDFLOPs(t *testing.T) {
	if got := HDEncodeFLOPs(10000, 512); got != 2*10000*512 {
		t.Fatalf("HDEncodeFLOPs = %v", got)
	}
	tr := HDTrainFLOPs(1000, 10, 100, 2)
	if tr <= 0 {
		t.Fatal("HDTrainFLOPs must be positive")
	}
	// more refine epochs cost more
	if HDTrainFLOPs(1000, 10, 100, 4) <= tr {
		t.Fatal("refine epochs must increase cost")
	}
}

func TestWorkloadBills(t *testing.T) {
	cnn := CNNClientWorkload(1e9, 500, 2)
	if cnn.TrainFLOPs != 3e12 || cnn.InferFLOPs != 0 {
		t.Fatalf("CNN workload = %+v", cnn)
	}
	fhd := FHDnnClientWorkload(1e9, 10000, 512, 10, 500, 2)
	if fhd.TrainFLOPs != 0 || fhd.InferFLOPs <= 500e9 {
		t.Fatalf("FHDnn workload = %+v", fhd)
	}
}

// The calibration must reproduce Table 1 exactly by construction.
func TestCalibrationReproducesTable1(t *testing.T) {
	ref := PaperReference()
	for name, m := range PaperTable1() {
		p := CalibrateProfile(name, ref, m)
		cnnTime := p.Time(ref.CNNWorkload())
		fhdTime := p.Time(ref.FHDnnWorkload())
		if math.Abs(cnnTime-m.ResNetSec) > 1e-6*m.ResNetSec {
			t.Fatalf("%s: CNN time %v, want %v", name, cnnTime, m.ResNetSec)
		}
		if math.Abs(fhdTime-m.FHDnnSec) > 1e-6*m.FHDnnSec {
			t.Fatalf("%s: FHDnn time %v, want %v", name, fhdTime, m.FHDnnSec)
		}
		cnnE := p.Energy(ref.CNNWorkload())
		fhdE := p.Energy(ref.FHDnnWorkload())
		if math.Abs(cnnE-m.ResNetJoules) > 1e-6*m.ResNetJoules {
			t.Fatalf("%s: CNN energy %v, want %v", name, cnnE, m.ResNetJoules)
		}
		if math.Abs(fhdE-m.FHDnnJoules) > 1e-6*m.FHDnnJoules {
			t.Fatalf("%s: FHDnn energy %v, want %v", name, fhdE, m.FHDnnJoules)
		}
	}
}

func TestCalibratedProfilesArePlausible(t *testing.T) {
	rpi := RaspberryPi3()
	jetson := JetsonNano()
	// The Jetson must be much faster than the Pi in both modes.
	if jetson.TrainGFLOPS <= rpi.TrainGFLOPS || jetson.InferGFLOPS <= rpi.InferGFLOPS {
		t.Fatalf("Jetson should outpace the Pi: %+v vs %+v", jetson, rpi)
	}
	// Power draws should be single-digit watts for both boards.
	for _, p := range []Profile{rpi, jetson} {
		for _, w := range []float64{p.TrainPowerW, p.InferPowerW} {
			if w < 1 || w > 20 {
				t.Fatalf("%s power %v W implausible", p.Name, w)
			}
		}
	}
}

// Scaling property: doubling local epochs roughly doubles CNN time but
// increases FHDnn time only mildly (features are cached; only refinement
// repeats). This is the Table 1 mechanism.
func TestEpochScalingAsymmetry(t *testing.T) {
	ref := PaperReference()
	p := JetsonNano()

	cnn1 := ref.CNNWorkload()
	ref2 := ref
	ref2.Epochs = 4
	cnn2 := ref2.CNNWorkload()
	if r := p.Time(cnn2) / p.Time(cnn1); math.Abs(r-2) > 1e-9 {
		t.Fatalf("CNN epoch scaling = %v, want 2", r)
	}

	fhd1 := ref.FHDnnWorkload()
	fhd2 := ref2.FHDnnWorkload()
	r := p.Time(fhd2) / p.Time(fhd1)
	if r > 1.5 {
		t.Fatalf("FHDnn epoch scaling = %v, want close to 1 (cached features)", r)
	}
}

func TestUncalibratedProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Profile{Name: "empty"}.Time(Workload{TrainFLOPs: 1})
}
