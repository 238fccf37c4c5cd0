package experiments

import (
	"math"
	"testing"
)

func TestConvergenceDiagnostics(t *testing.T) {
	forSeeds(t, tiny(), func(t *testing.T, s Scale) {
		s.Rounds = 8
		rows := Convergence(s, 0.1)
		if len(rows) != 2 {
			t.Fatalf("got %d rows", len(rows))
		}
		hd, cnn := rows[0], rows[1]
		if hd.Model != "FHDnn" || cnn.Model != "CNN" {
			t.Fatal("row order")
		}
		// FHDnn plateaus quickly
		if hd.RoundsToPlateau == -1 || hd.RoundsToPlateau > 6 {
			t.Fatalf("FHDnn plateau at %d rounds, want fast", hd.RoundsToPlateau)
		}
		// FHDnn must end up far more accurate; plateau speed is only
		// comparable between models that actually learn (a chance-level CNN
		// "plateaus" at round 1).
		if hd.BestAccuracy < cnn.BestAccuracy+0.2 {
			t.Fatalf("FHDnn best %v should dominate CNN best %v", hd.BestAccuracy, cnn.BestAccuracy)
		}
		if cnn.BestAccuracy > 0.5*hd.BestAccuracy && cnn.RoundsToPlateau != -1 &&
			hd.RoundsToPlateau > cnn.RoundsToPlateau {
			t.Fatalf("FHDnn (%d) slower than a learning CNN (%d)", hd.RoundsToPlateau, cnn.RoundsToPlateau)
		}
		if hd.Monotonicity < 0.5 {
			t.Fatalf("FHDnn monotonicity %v suspiciously low", hd.Monotonicity)
		}
		_ = ConvergenceTable(rows).String()
	})
}

func TestAnalyzeConvergenceSynthetic(t *testing.T) {
	// A perfect O(1/T) error curve: acc(t) = 1 - 1/t.
	acc := make([]float64, 20)
	for i := range acc {
		acc[i] = 1 - 1/float64(i+1)
	}
	row := analyzeConvergence("synthetic", acc, 1e-9)
	// best = acc(20); error(t) = 1/t - 1/20 which decays slightly faster
	// than 1/t; the fitted exponent must be steeply negative.
	if row.DecayExponent > -0.8 {
		t.Fatalf("decay exponent %v, want <= -0.8 for a 1/T curve", row.DecayExponent)
	}
	if row.Monotonicity != 1 {
		t.Fatalf("monotonicity %v, want 1 for a monotone curve", row.Monotonicity)
	}
}

func TestAnalyzeConvergenceFlatCurve(t *testing.T) {
	row := analyzeConvergence("flat", []float64{0.5, 0.5, 0.5}, 0.01)
	if row.RoundsToPlateau != 1 {
		t.Fatalf("flat curve plateaus immediately, got %d", row.RoundsToPlateau)
	}
	if !math.IsNaN(row.DecayExponent) {
		t.Fatalf("flat curve has no decay region, exponent %v", row.DecayExponent)
	}
}

func TestSlope(t *testing.T) {
	if got := slope([]float64{0, 1, 2}, []float64{1, 3, 5}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("slope = %v", got)
	}
	if !math.IsNaN(slope([]float64{1}, []float64{1})) {
		t.Fatal("single point must give NaN")
	}
	if !math.IsNaN(slope([]float64{2, 2}, []float64{1, 5})) {
		t.Fatal("degenerate x must give NaN")
	}
}
