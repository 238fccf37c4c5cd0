package compress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// DecodeInto a recycled buffer must leave nothing of what the buffer held:
// into a NaN-filled dst it decodes the bits Decode does, for every codec,
// and for a corrupt payload it fails with the error Decode gives.
func TestDecodeIntoRecycledBufferMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := randomUpdate(rng, 1000)
	u[3] = float32(math.Inf(-1))
	u[500] = float32(math.NaN())
	u[501] = float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	for _, c := range []Codec{Raw{}, Float16{}, Int8{}, TopK{Frac: 0.1}, TopK{Frac: 1}} {
		data := c.Encode(u)
		want, err := c.Decode(data, len(u))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dst := make([]float32, len(u))
		for i := range dst {
			dst[i] = nan
		}
		if err := c.DecodeInto(dst, data); err != nil {
			t.Fatalf("%s: DecodeInto: %v", c.Name(), err)
		}
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: entry %d decoded %#x into a recycled buffer, Decode gives %#x",
					c.Name(), i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
			}
		}

		bad := append([]byte(nil), data[:len(data)-1]...)
		_, wantErr := c.Decode(bad, len(u))
		gotErr := c.DecodeInto(dst, bad)
		var we, ge *DecodeError
		if !errors.As(wantErr, &we) || !errors.As(gotErr, &ge) || *we != *ge {
			t.Fatalf("%s: truncated payload: DecodeInto %v, Decode %v", c.Name(), gotErr, wantErr)
		}
	}
}
