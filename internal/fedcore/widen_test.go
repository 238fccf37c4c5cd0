package fedcore

import (
	"math"
	"math/rand"
	"testing"
)

// The values a widening add can get wrong: for x, every non-finite class
// and the finite values with unusual bits; for the sums, NaNs with
// payloads (a NaN in both operands shows which payload survives), the
// infinities and -0.
var (
	widenXProbes = []uint32{
		0x7f800000, 0xff800000, // +-Inf
		0x7fc00000, 0xffc12345, // quiet NaNs
		0x7f800001, 0x7fa5a5a5, // signalling NaNs
		0x7f7fffff, 0xff7fffff, // +-MaxFloat32
		0x00000001, 0x807fffff, // subnormals
		0x80000000, // -0
	}
	widenSumProbes = []uint64{
		0x7ff8000000000001, 0xfff8000000abcdef, // quiet NaNs with payloads
		0x7ff0000000000001,                     // signalling NaN
		0x7ff0000000000000, 0xfff0000000000000, // +-Inf
		0x8000000000000000, // -0
		0x47efffffe0000000, // MaxFloat32 as float64
	}
)

// checkWidenAdd compares widenAdd with its twin on copies of sum and x.
func checkWidenAdd(t *testing.T, sum []float64, x []float32) {
	t.Helper()
	got := append([]float64(nil), sum...)
	want := append([]float64(nil), sum...)
	widenAdd(got, x)
	widenAddGo(want, x)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("len %d, entry %d: %#016x + %#08x gave %#016x, twin %#016x", len(x), i,
				math.Float64bits(sum[i]), math.Float32bits(x[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// Every length 0-100 and a few long ones; at every position of the short
// ones every x probe, every sum probe, and a NaN in both operands.
func TestWidenAddMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range append(seq(101), 255, 4099, 100003) {
		sum := make([]float64, n)
		x := make([]float32, n)
		for i := range x {
			sum[i] = rng.NormFloat64() * 100
			x[i] = float32(rng.NormFloat64())
		}
		checkWidenAdd(t, sum, x)
		if n > 100 {
			continue
		}
		for p := range x {
			s0, x0 := sum[p], x[p]
			for _, b := range widenXProbes {
				x[p] = math.Float32frombits(b)
				checkWidenAdd(t, sum, x)
			}
			x[p] = x0
			for _, b := range widenSumProbes {
				sum[p] = math.Float64frombits(b)
				checkWidenAdd(t, sum, x)
			}
			for _, b := range widenSumProbes[:3] {
				sum[p] = math.Float64frombits(b)
				for _, xb := range widenXProbes[2:6] {
					x[p] = math.Float32frombits(xb)
					checkWidenAdd(t, sum, x)
				}
			}
			sum[p], x[p] = s0, x0
		}
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// BenchmarkWidenAdd adds one paper-size update (K=10 x d=10 000) into a
// float64 accumulator per op, the kernel and its twin.
func BenchmarkWidenAdd(b *testing.B) {
	x := benchParams()
	sum := make([]float64, len(x))
	for _, k := range []struct {
		name string
		f    func([]float64, []float32)
	}{{"kernel", widenAdd}, {"go", widenAddGo}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(x)))
			for i := 0; i < b.N; i++ {
				k.f(sum, x)
			}
		})
	}
}
