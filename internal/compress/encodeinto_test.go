package compress

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// EncodedLen is exact, and EncodeInto a recycled buffer leaves nothing of
// what the buffer held: into a 0xA5-filled dst it writes the bytes Encode
// returns, for every codec, at lengths from empty to odd, over clean
// updates and ones holding NaN, -Inf and -0.
func TestEncodeIntoRecycledBufferMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	codecs := []Codec{Raw{}, Float16{}, Int8{}, TopK{Frac: 0.1}, TopK{Frac: 0.37}, TopK{Frac: 1}, TopK{Frac: 1e-9}}
	for _, n := range []int{0, 1, 2, 7, 1000} {
		clean := randomUpdate(rng, n)
		dirty := append([]float32(nil), clean...)
		if n >= 3 {
			dirty[0] = float32(math.NaN())
			dirty[1] = float32(math.Inf(-1))
			dirty[2] = float32(math.Copysign(0, -1))
		}
		for _, u := range [][]float32{clean, dirty} {
			for _, c := range codecs {
				want := c.Encode(u)
				if got := c.EncodedLen(n); got != len(want) {
					t.Fatalf("%s: EncodedLen(%d) = %d, Encode gives %d bytes", c.Name(), n, got, len(want))
				}
				dst := bytes.Repeat([]byte{0xA5}, len(want))
				c.EncodeInto(dst, u)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s, n=%d: EncodeInto a recycled buffer differs from Encode", c.Name(), n)
				}
			}
		}
	}
}

// EncodeInto refuses a dst of any other length than EncodedLen.
func TestEncodeIntoRejectsWrongLength(t *testing.T) {
	u := make([]float32, 10)
	for _, c := range []Codec{Raw{}, Float16{}, Int8{}, TopK{Frac: 0.5}} {
		for _, delta := range []int{-1, 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: EncodeInto %d bytes off EncodedLen did not panic", c.Name(), delta)
					}
				}()
				c.EncodeInto(make([]byte, c.EncodedLen(len(u))+delta), u)
			}()
		}
	}
}

// Once warm, a top-k encode of a paper-size update (K=10, d=10 000) into
// a caller's buffer allocates no selection scratch: at most 1 KB per
// encode, where the scratch alone is 800 KB. GC is off and there is one
// P while it measures, so the pool keeps what the warm-up put in it.
func TestTopKEncodeIntoSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const runs = 4
	c := TopK{Frac: 0.1}
	u := randomUpdate(rand.New(rand.NewSource(3)), 10*10000)
	dst := make([]byte, c.EncodedLen(len(u)))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c.EncodeInto(dst, u) // warm-up: the pooled scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.EncodeInto(dst, u)
	}
	runtime.ReadMemStats(&after)
	if perEncode := (after.TotalAlloc - before.TotalAlloc) / runs; perEncode > 1<<10 {
		t.Fatalf("%d B allocated per warm top-k encode of %d values, want <= 1 KB", perEncode, len(u))
	}
}
