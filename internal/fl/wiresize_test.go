package fl

import (
	"testing"

	"fhdnn/internal/channel"
)

// fakeSized is an uplink with a custom wire size.
type fakeSized struct {
	channel.Perfect
	perValue int
}

func (f fakeSized) WireBytes(n int) int { return n * f.perValue }

func TestTrainerUsesWireSizer(t *testing.T) {
	tr := hdSetup(t, 4, 90)
	tr.Cfg.Uplink = fakeSized{perValue: 1} // 1 byte per prototype entry
	hist, model := tr.Run()
	perClient := int64(model.NumParams())
	for _, r := range hist.Rounds {
		if r.BytesUplinked != perClient*int64(r.Participants) {
			t.Fatalf("round %d bytes %d, want %d per client", r.Round, r.BytesUplinked, perClient)
		}
	}
}

func TestHDAdaptiveOptionRuns(t *testing.T) {
	tr := hdSetup(t, 4, 91)
	tr.Adaptive = true
	tr.AdaptiveLR = 0.8
	hist, _ := tr.Run()
	if hist.FinalAccuracy() < 0.7 {
		t.Fatalf("adaptive federated accuracy %v too low", hist.FinalAccuracy())
	}
}
