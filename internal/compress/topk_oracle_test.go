package compress

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// topKEncodeOracle encodes by sorting indices by (magnitude descending,
// index ascending): the reference the selecting encoder must match byte
// for byte.
func topKEncodeOracle(c TopK, update []float32) []byte {
	k := int(c.Frac * float64(len(update)))
	if k < 1 {
		k = 1
	}
	if k > len(update) {
		k = len(update)
	}
	idx := make([]int, len(update))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		av, bv := magnitudeOracle(update[idx[a]]), magnitudeOracle(update[idx[b]])
		if av != bv {
			return av > bv
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	kept := idx[:k]
	sort.Ints(kept) // index-ordered payload compresses and scans better
	out := make([]byte, 4+8*k)
	putU32(out[0:], uint32(k))
	for i, j := range kept {
		putU32(out[4+8*i:], uint32(j))
		putU32(out[8+8*i:], math.Float32bits(update[j]))
	}
	return out
}

// magnitudeOracle is the float64 magnitude the oracle ranks by.
func magnitudeOracle(v float32) float64 {
	if v != v {
		return math.Inf(1)
	}
	return math.Abs(float64(v))
}

// topKValues draws n values of one kind for the top-k byte tests.
func topKValues(rng *rand.Rand, kind string, n int) []float32 {
	special := []float32{
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), // quiet NaNs of both signs
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345), // NaNs with payloads
		float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
	}
	u := make([]float32, n)
	for i := range u {
		switch kind {
		case "gaussian":
			u[i] = float32(rng.NormFloat64())
		case "ties":
			// Few magnitudes of both signs: every threshold falls inside
			// a run of equal magnitudes.
			u[i] = float32(rng.Intn(3)+1) * float32(1-2*rng.Intn(2)) / 4
		case "special":
			if rng.Intn(4) == 0 {
				u[i] = special[rng.Intn(len(special))]
			} else {
				u[i] = float32(rng.Intn(5)-2) / 2
			}
		}
	}
	return u
}

func TestTopKEncodeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 17, 20480} {
		for _, kind := range []string{"gaussian", "ties", "special"} {
			u := topKValues(rng, kind, n)
			for _, frac := range []float64{0, 1e-6, 0.1, 0.5, 1, 2} {
				c := TopK{Frac: frac}
				if got, want := c.Encode(u), topKEncodeOracle(c, u); !bytes.Equal(got, want) {
					t.Fatalf("n=%d %s Frac=%v: Encode differs from the sort oracle (%d vs %d bytes)",
						n, kind, frac, len(got), len(want))
				}
			}
		}
	}
}

func FuzzTopKEncode(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0x80, 0xbf, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f}, uint8(50))
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 0, 1, 0, 0x80, 0xff, 0, 0, 0x80, 0x7f}, uint8(25))
	f.Fuzz(func(t *testing.T, data []byte, pct uint8) {
		u := make([]float32, len(data)/4)
		for i := range u {
			u[i] = math.Float32frombits(getU32(data[4*i:]))
		}
		c := TopK{Frac: float64(pct) / 100}
		if got, want := c.Encode(u), topKEncodeOracle(c, u); !bytes.Equal(got, want) {
			t.Fatalf("Encode(%v) with Frac %v = %x, sort oracle %x", u, c.Frac, got, want)
		}
	})
}
