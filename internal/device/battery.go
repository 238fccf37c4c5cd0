package device

import "fmt"

// Battery models the energy reservoir of a battery-operated edge device —
// the constraint that motivates the whole paper (Sec. 1: "battery operated
// edge devices", Sec. 2.2: "limited power and computation budgets"). It
// converts the Table 1 per-round energies into deployment-level questions:
// how many federated rounds does one charge allow, and does the device
// survive the whole training run?
type Battery struct {
	// CapacityWh is the usable battery capacity in watt-hours.
	CapacityWh float64
	// IdlePowerW drains continuously, independent of training.
	IdlePowerW float64
}

// Joules returns the capacity in joules.
func (b Battery) Joules() float64 { return b.CapacityWh * 3600 }

// RoundsOnCharge returns how many federated rounds the battery sustains,
// given the per-round training energy and duration on this device plus the
// per-round uplink airtime at the given radio power. Returns 0 if even one
// round does not fit.
func (b Battery) RoundsOnCharge(roundEnergyJ, roundSec, uplinkSec, radioPowerW float64) int {
	if roundEnergyJ < 0 || roundSec < 0 || uplinkSec < 0 {
		panic("device: negative round cost")
	}
	perRound := roundEnergyJ + b.IdlePowerW*roundSec + (radioPowerW+b.IdlePowerW)*uplinkSec
	if perRound <= 0 {
		panic("device: round consumes no energy")
	}
	return int(b.Joules() / perRound)
}

// TrainingEnergyRow is one line of the energy-to-target comparison: what a
// full federated training run costs one client end to end.
type TrainingEnergyRow struct {
	Model        string
	Rounds       int
	PerRoundJ    float64
	TotalJ       float64
	BatteryFrac  float64 // fraction of the battery consumed
	RoundsOnCell int     // rounds a full charge would sustain
}

// EnergyToTarget combines a device profile, per-round workloads, and the
// measured rounds-to-convergence of each model into the number that
// matters in the field: joules (and battery fraction) to reach target
// accuracy. The paper's per-round advantage (1.5-6x) compounds with the
// ~3x round advantage into roughly an order of magnitude end to end.
func EnergyToTarget(p Profile, ref ReferenceWorkload, battery Battery,
	fhdnnRounds, cnnRounds int, uplinkSecFHDnn, uplinkSecCNN, radioPowerW float64) []TrainingEnergyRow {
	if fhdnnRounds <= 0 || cnnRounds <= 0 {
		panic(fmt.Sprintf("device: rounds must be positive, got %d/%d", fhdnnRounds, cnnRounds))
	}
	rows := make([]TrainingEnergyRow, 0, 2)
	add := func(model string, w Workload, rounds int, uplinkSec float64) {
		perRound := p.Energy(w) + radioPowerW*uplinkSec
		total := perRound * float64(rounds)
		rows = append(rows, TrainingEnergyRow{
			Model:        model,
			Rounds:       rounds,
			PerRoundJ:    perRound,
			TotalJ:       total,
			BatteryFrac:  total / battery.Joules(),
			RoundsOnCell: battery.RoundsOnCharge(p.Energy(w), p.Time(w), uplinkSec, radioPowerW),
		})
	}
	add("FHDnn", ref.FHDnnWorkload(), fhdnnRounds, uplinkSecFHDnn)
	add("ResNet", ref.CNNWorkload(), cnnRounds, uplinkSecCNN)
	return rows
}
