package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// finiteProbes are the values a finiteness scan can get wrong: every
// class of non-finite value, and the finite ones nearest to them or
// spelled with unusual bits.
var finiteProbes = []uint32{
	0x7f800000, // +Inf
	0xff800000, // -Inf
	0x7fc00000, // quiet NaN
	0xffc00001, // negative quiet NaN with a payload
	0x7f800001, // signalling NaN
	0x7fbfffff, // signalling NaN, largest payload
	0x7f7fffff, // MaxFloat32
	0xff7fffff, // -MaxFloat32
	0x00000001, // smallest subnormal
	0x807fffff, // largest negative subnormal
	0x80000000, // -0
}

// checkAllFinite compares AllFinite with its twin on x.
func checkAllFinite(t *testing.T, x []float32) {
	t.Helper()
	if got, want := AllFinite(x), allFiniteGo(x); got != want {
		t.Fatalf("AllFinite(len %d) = %v, allFiniteGo = %v", len(x), got, want)
	}
}

// Every length 0-100 and a few long ones, every probe at every position
// of the short ones, at four alignments of the slice start.
func TestAllFiniteMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]float32, 100003+3)
	for i := range buf {
		buf[i] = float32(rng.NormFloat64())
	}
	for off := 0; off < 4; off++ {
		for n := 0; n <= 100; n++ {
			x := buf[off : off+n]
			checkAllFinite(t, x)
			for p := range x {
				for _, bits := range finiteProbes {
					old := x[p]
					x[p] = math.Float32frombits(bits)
					checkAllFinite(t, x)
					x[p] = old
				}
			}
		}
		for _, n := range []int{255, 256, 257, 4099, 100003} {
			x := buf[off : off+n]
			checkAllFinite(t, x)
			for _, p := range []int{0, 31, 32, n/2 - 1, n - 33, n - 32, n - 9, n - 8, n - 1} {
				for _, bits := range finiteProbes {
					old := x[p]
					x[p] = math.Float32frombits(bits)
					checkAllFinite(t, x)
					x[p] = old
				}
			}
		}
	}
}

func FuzzAllFinite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x80, 0x7f})
	seed := make([]byte, 4*67)
	binary.LittleEndian.PutUint32(seed[4*66:], 0x7fc00000)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		x := make([]float32, len(data)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkAllFinite(t, x)
	})
}

// BenchmarkAllFinite scans 100 000 finite values per op (one paper-size
// update, K=10 x d=10 000), the kernel and its twin.
func BenchmarkAllFinite(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, 100000)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for _, k := range []struct {
		name string
		f    func([]float32) bool
	}{{"kernel", AllFinite}, {"go", allFiniteGo}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(x)))
			for i := 0; i < b.N; i++ {
				if !k.f(x) {
					b.Fatal("finite input reported non-finite")
				}
			}
		})
	}
}
