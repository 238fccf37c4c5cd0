package experiments

import (
	"math"
	"testing"
)

func TestEq4GainTracksTheory(t *testing.T) {
	forSeeds(t, tiny(), func(t *testing.T, s Scale) {
		rows := Eq4NoisySNRGain(s, []int{1, 4, 16}, 10)
		if len(rows) != 3 {
			t.Fatalf("got %d rows", len(rows))
		}
		for _, r := range rows {
			if math.Abs(r.GainDB-r.TheoryDB) > 1.0 {
				t.Fatalf("N=%d: measured gain %.2f dB vs theory %.2f dB", r.Clients, r.GainDB, r.TheoryDB)
			}
		}
		// single client: no gain
		if math.Abs(rows[0].GainDB) > 1.0 {
			t.Fatalf("N=1 gain should be ~0, got %v", rows[0].GainDB)
		}
		// 16 clients: ~12 dB
		if rows[2].GainDB < 11 || rows[2].GainDB > 13.5 {
			t.Fatalf("N=16 gain %.2f dB, want ~12", rows[2].GainDB)
		}
		_ = Eq4Table(rows).String()
	})
}

func TestEq4DefaultCounts(t *testing.T) {
	rows := Eq4NoisySNRGain(tiny(), nil, 5)
	if len(rows) != 6 {
		t.Fatalf("default sweep has %d points", len(rows))
	}
}
