package experiments

import "testing"

// TestSubsampleSweepGracefulDegradation checks the subsampling claim at
// the scale EXPERIMENTS.md reports it (Small: 12 rounds, d = 2 048), at
// every seed from 1 to 10.
func TestSubsampleSweepGracefulDegradation(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := Small()
		s.Seed = seed
		rows := SubsampleSweep(s, []float64{1, 0.25, 0.05})
		if len(rows) != 3 {
			t.Fatalf("seed %d: got %d rows", seed, len(rows))
		}
		full, quarter, tiny5 := rows[0], rows[1], rows[2]
		// traffic must scale with the fraction
		if quarter.BytesPerRound >= full.BytesPerRound/3 {
			t.Errorf("seed %d: 25%% subsampling traffic %d vs full %d", seed, quarter.BytesPerRound, full.BytesPerRound)
		}
		// the Fig-5 property: quartering the traffic costs little accuracy
		if quarter.Accuracy < full.Accuracy-0.15 {
			t.Errorf("seed %d: 25%% transmission lost too much accuracy: %v vs %v", seed, quarter.Accuracy, full.Accuracy)
		}
		// even 5% stays far above chance (0.1)
		if tiny5.Accuracy < 0.3 {
			t.Errorf("seed %d: 5%% transmission accuracy %v collapsed", seed, tiny5.Accuracy)
		}
		_ = SubsampleTable(rows).String()
	}
}
