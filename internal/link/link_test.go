package link

import (
	"math"
	"testing"
	"time"
)

func TestShannonCapacity(t *testing.T) {
	// B=5 MHz, SNR=5 dB (3.162x): C = 5e6 * log2(4.162) ~ 10.3 Mb/s
	c := ShannonCapacity(5e6, 5)
	if c < 10.0e6 || c > 10.6e6 {
		t.Fatalf("capacity = %v", c)
	}
	// 0 dB -> log2(2) = 1 bit/s/Hz
	if got := ShannonCapacity(1e6, 0); math.Abs(got-1e6) > 1 {
		t.Fatalf("0 dB capacity = %v", got)
	}
}

func TestPaperLTEValid(t *testing.T) {
	cfg := PaperLTE()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper constants must validate: %v", err)
	}
	// The paper's error-free rate (1.6 Mb/s) must be far below capacity,
	// and the error-admitting rate (5 Mb/s) below it too but higher.
	if cfg.ErrorAdmittingRate <= cfg.ErrorFreeRate {
		t.Fatal("error-admitting rate should exceed error-free rate")
	}
}

func TestValidateRejectsOverCapacity(t *testing.T) {
	cfg := PaperLTE()
	cfg.ErrorFreeRate = 100e6
	if err := cfg.Validate(); err == nil {
		t.Fatal("rate above capacity must be rejected")
	}
	cfg = PaperLTE()
	cfg.ErrorFreeRate = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero rate must be rejected")
	}
}

func TestUploadTime(t *testing.T) {
	// 1 MB at 8 Mb/s = 1 s
	got := UploadTime(1_000_000, 8e6)
	if math.Abs(got.Seconds()-1) > 1e-9 {
		t.Fatalf("UploadTime = %v", got)
	}
}

func TestUploadTimeBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UploadTime(1, 0)
}

func TestRoundAndTrainingTime(t *testing.T) {
	up := UploadTime(1000, 1e6)
	if RoundTime(1000, 10, 1e6) != 10*up {
		t.Fatal("RoundTime must serialize uploads")
	}
	if TrainingTime(5, 1000, 10, 1e6) != 50*up {
		t.Fatal("TrainingTime must multiply rounds")
	}
}

func TestDataTransmitted(t *testing.T) {
	if DataTransmitted(100, 22_000_000) != 2_200_000_000 {
		t.Fatal("DataTransmitted wrong")
	}
}

func TestPaperClockTimeShape(t *testing.T) {
	cfg := PaperLTE()
	// ResNet: 22 MB updates at the error-free 1.6 Mb/s, 100 clients,
	// ~120 rounds to converge.
	resnet := TrainingTime(120, 22_000_000, 100, cfg.ErrorFreeRate)
	// FHDnn: 1 MB updates at the error-admitting 5 Mb/s, 100 clients,
	// ~25 rounds to converge.
	fhdnn := TrainingTime(25, 1_000_000, 100, cfg.ErrorAdmittingRate)
	if fhdnn > 2*time.Hour {
		t.Fatalf("FHDnn clock time %v, paper reports ~1.1 h", fhdnn)
	}
	if resnet < 300*time.Hour || resnet > 450*time.Hour {
		t.Fatalf("ResNet clock time %v, paper reports ~374 h", resnet)
	}
	ratio := float64(resnet) / float64(fhdnn)
	if ratio < 100 {
		t.Fatalf("speedup ratio %v, expected > 100x", ratio)
	}
}
