package fedcore

import (
	"math"
	"math/rand"
	"testing"
)

// No aggregator keeps an update's Params past Add: the caller may
// overwrite the slice at once (the flnet server decodes every upload into
// a recycled buffer). Overwriting each row with NaN right after its Add
// must commit the bits that untouched rows commit, for every policy,
// clipped or not, over two rounds so that storage reused across Reset is
// covered too.
func TestAddDoesNotKeepParams(t *testing.T) {
	type policy struct {
		name string
		mk   func() Aggregator
	}
	policies := []policy{
		{"fedavg", func() Aggregator { return &FedAvg{} }},
		{"bundle", func() Aggregator { return &Bundle{} }},
		{"median", func() Aggregator { return &Median{} }},
		{"trimmed", func() Aggregator { return &TrimmedMean{Frac: 0.2} }},
	}
	for _, p := range policies {
		policies = append(policies, policy{"clip:20:" + p.name, func() Aggregator {
			return &NormClip{Inner: p.mk(), Bound: 20}
		}})
	}
	const d = 37
	rng := rand.New(rand.NewSource(1))
	rounds := make([][]Update, 2)
	for r := range rounds {
		for i := 0; i < 7+r; i++ {
			p := make([]float32, d)
			for j := range p {
				p[j] = float32(rng.NormFloat64())
				if i%3 == 0 {
					p[j] *= 10 // over the clip bound
				}
			}
			rounds[r] = append(rounds[r], Update{Params: p, Samples: 1 + i})
		}
	}
	start := make([]float32, d)
	for j := range start {
		start[j] = float32(j) / 8
	}
	nan := float32(math.NaN())
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			ref, got := p.mk(), p.mk()
			for r, ups := range rounds {
				want, have := append([]float32(nil), start...), append([]float32(nil), start...)
				for _, u := range ups {
					ref.Add(u)
					u.Params = append([]float32(nil), u.Params...)
					got.Add(u)
					for j := range u.Params {
						u.Params[j] = nan
					}
				}
				ref.Commit(want)
				got.Commit(have)
				ref.Reset()
				got.Reset()
				for j := range want {
					if math.Float32bits(have[j]) != math.Float32bits(want[j]) {
						t.Fatalf("round %d, entry %d: %v after the caller overwrote its rows, %v untouched",
							r, j, have[j], want[j])
					}
				}
			}
		})
	}
}
