package device

import (
	"testing"

	"fhdnn/internal/link"
)

func TestBatteryJoules(t *testing.T) {
	b := Battery{CapacityWh: 10}
	if b.Joules() != 36000 {
		t.Fatalf("Joules = %v", b.Joules())
	}
}

func TestRoundsOnCharge(t *testing.T) {
	b := Battery{CapacityWh: 1, IdlePowerW: 0} // 3600 J
	// 100 J per round, no idle, no radio
	if got := b.RoundsOnCharge(100, 10, 0, 0); got != 36 {
		t.Fatalf("rounds = %d, want 36", got)
	}
	// idle drain during the round reduces the count
	b.IdlePowerW = 1
	if got := b.RoundsOnCharge(100, 10, 0, 0); got != 32 { // 110 J/round
		t.Fatalf("rounds with idle = %d, want 32", got)
	}
}

func TestRoundsOnChargeValidation(t *testing.T) {
	b := Battery{CapacityWh: 1}
	for _, f := range []func(){
		func() { b.RoundsOnCharge(-1, 0, 0, 0) },
		func() { b.RoundsOnCharge(0, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// End-to-end energy advantage: per-round savings compound with the round
// advantage, reproducing the paper's "lowers client computation costs by
// 6x" framing at deployment level.
func TestEnergyToTargetCompounds(t *testing.T) {
	p := JetsonNano()
	ref := PaperReference()
	battery := Battery{CapacityWh: 50, IdlePowerW: 0.5}
	lte := link.PaperLTE()
	upFHD := link.UploadTime(400_000, lte.ErrorAdmittingRate).Seconds()
	upCNN := link.UploadTime(22_000_000, lte.ErrorFreeRate).Seconds()

	rows := EnergyToTarget(p, ref, battery, 25, 75, upFHD, upCNN, 2.0)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	fhd, cnn := rows[0], rows[1]
	if fhd.Model != "FHDnn" || cnn.Model != "ResNet" {
		t.Fatal("row order")
	}
	ratio := cnn.TotalJ / fhd.TotalJ
	// Jetson per-round energy advantage ~5x, round advantage 3x, plus the
	// radio: expect >= 10x end to end.
	if ratio < 10 {
		t.Fatalf("end-to-end energy ratio %v, want >= 10", ratio)
	}
	if fhd.BatteryFrac >= cnn.BatteryFrac {
		t.Fatal("FHDnn must consume a smaller battery fraction")
	}
	if fhd.RoundsOnCell <= cnn.RoundsOnCell {
		t.Fatal("FHDnn must sustain more rounds per charge")
	}
}

func TestEnergyToTargetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EnergyToTarget(JetsonNano(), PaperReference(), Battery{CapacityWh: 1}, 0, 10, 1, 1, 1)
}
