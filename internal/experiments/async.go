package experiments

import (
	"fmt"
	"math/rand"

	"fhdnn/internal/fl"
)

// AsyncRow compares synchronous federated bundling against asynchronous
// staleness-weighted aggregation on the same heterogeneous fleet: the
// straggler tax is paid per round in the synchronous case and amortized
// away in the asynchronous one.
type AsyncRow struct {
	Mode            string
	FinalAccuracy   float64
	TimeToTargetSec float64 // virtual seconds to reach the shared target
	Target          float64
}

// AsyncVsSync builds a 70%-slow/30%-fast fleet (delays in virtual seconds,
// shaped like the Table 1 RPi/Jetson FHDnn times), trains both ways on the
// same CIFAR-like split, and reports time-to-target in virtual time.
func AsyncVsSync(s Scale) []AsyncRow {
	train, test := s.BuildDataset("cifar10")
	part := s.Partition(train, true, s.Seed+90)
	f := s.NewFHDnn(train)
	encoded := f.EncodeDataset(train)
	testEnc := f.EncodeDataset(test)

	const slowDelay, fastDelay = 859.0, 16.0 // Table 1 FHDnn client times
	rng := rand.New(rand.NewSource(s.Seed + 91))
	delays := make([]float64, s.NumClients)
	for i := range delays {
		if rng.Float64() < 0.7 {
			delays[i] = slowDelay
		} else {
			delays[i] = fastDelay
		}
	}

	// --- synchronous: rounds close on the slowest participant ---
	syncTrainer := &fl.HDTrainer{
		Cfg:        s.FLConfig(s.Seed + 92),
		Encoded:    encoded,
		Labels:     train.Labels,
		TestEnc:    testEnc,
		TestLabels: test.Labels,
		NumClasses: train.NumClasses,
		Part:       part,
	}
	syncHist, _ := syncTrainer.Run()
	// Virtual duration of a synchronous round: the max over its
	// participants. The trainer's sampling stream is internal, so use the
	// expectation over the fleet composition: with k participants drawn
	// from a 70%-slow fleet, a round is straggler-paced with probability
	// 1-(0.3)^k (~1 for the paper's k=20).
	participants := int(0.2*float64(s.NumClients) + 0.5)
	if participants < 1 {
		participants = 1
	}
	pAllFast := 1.0
	for i := 0; i < participants; i++ {
		pAllFast *= 0.3
	}
	expRound := slowDelay*(1-pAllFast) + fastDelay*pAllFast

	target := 0.9 * syncHist.BestAccuracy()
	syncRounds := syncHist.RoundsToAccuracy(target)
	syncTime := -1.0
	if syncRounds > 0 {
		syncTime = float64(syncRounds) * expRound
	}

	// --- asynchronous ---
	asyncTrainer := &fl.AsyncHDTrainer{
		Encoded:        encoded,
		Labels:         train.Labels,
		TestEnc:        testEnc,
		TestLabels:     test.Labels,
		NumClasses:     train.NumClasses,
		Part:           part,
		Delay:          delays,
		Horizon:        expRound * float64(s.Rounds),
		LocalEpochs:    2,
		StalenessAlpha: 0.5,
		EvalEvery:      fastDelay,
	}
	asyncRes := asyncTrainer.Run()

	return []AsyncRow{
		{Mode: "synchronous", FinalAccuracy: syncHist.FinalAccuracy(),
			TimeToTargetSec: syncTime, Target: target},
		{Mode: "asynchronous", FinalAccuracy: asyncRes.FinalAccuracy(),
			TimeToTargetSec: asyncRes.TimeToAccuracy(target), Target: target},
	}
}

// AsyncTable renders the comparison.
func AsyncTable(rows []AsyncRow) *Table {
	t := &Table{
		Title:  "Extension: async staleness-weighted bundling vs synchronous rounds (70% slow fleet)",
		Header: []string{"mode", "final acc", "time to target (s)", "target"},
	}
	for _, r := range rows {
		tt := "-"
		if r.TimeToTargetSec >= 0 {
			tt = fmt.Sprintf("%.0f", r.TimeToTargetSec)
		}
		t.AddRow(r.Mode, fmt.Sprintf("%.4g", r.FinalAccuracy), tt, fmt.Sprintf("%.3g", r.Target))
	}
	return t
}
