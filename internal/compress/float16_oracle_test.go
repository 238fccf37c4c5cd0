package compress

import (
	"math"
	"math/rand"
	"testing"
)

// float32ToFloat16Oracle is the branching Float32ToFloat16 the branchless
// normal path replaced, kept verbatim as the reference it must match on
// every input.
func float32ToFloat16Oracle(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF
	switch {
	case exp >= 0x1F: // overflow or inf/nan
		if int32(bits>>23&0xFF) == 0xFF && mant != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // Inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// subnormal: shift mantissa (with implicit leading 1)
		mant = (mant | 0x800000) >> uint32(1-exp)
		// round to nearest
		if mant&0x1000 != 0 {
			mant += 0x2000
		}
		return sign | uint16(mant>>13)
	default:
		// round to nearest even on the 13 dropped bits
		round := mant & 0x1FFF
		h := sign | uint16(exp)<<10 | uint16(mant>>13)
		if round > 0x1000 || (round == 0x1000 && h&1 == 1) {
			h++
		}
		return h
	}
}

// TestFloat32ToFloat16MatchesOracle sweeps every sign and exponent (the
// top 9 bits) against every value of the low 14 mantissa bits, which hold
// the 13 dropped bits and the kept bit that breaks ties, under random high
// mantissa bits that are all ones a quarter of the time, so the rounding
// carry runs into the exponent.
func TestFloat32ToFloat16MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for se := uint32(0); se < 1<<9; se++ {
		for lo := uint32(0); lo < 1<<14; lo++ {
			r := rng.Uint32()
			hi := r & 0x1FF
			if r>>30 == 0 {
				hi = 0x1FF
			}
			bits := se<<23 | hi<<14 | lo
			f := math.Float32frombits(bits)
			if got, want := Float32ToFloat16(f), float32ToFloat16Oracle(f); got != want {
				t.Fatalf("Float32ToFloat16(%#08x) = %#04x, oracle %#04x", bits, got, want)
			}
		}
	}
}

// TestFloat32ToFloat16Pinned pins encodings at the rounding boundaries,
// against both the encoder and the oracle. The subnormal rows pin the
// format's half-up rounding there (RNE would give 0x0000 and 0x0002), so
// that a change to it has to be deliberate.
func TestFloat32ToFloat16Pinned(t *testing.T) {
	for _, tc := range []struct {
		bits uint32
		want uint16
	}{
		{0x00000000, 0x0000}, // +0
		{0x80000000, 0x8000}, // -0
		{0x3F800000, 0x3C00}, // 1
		{0x3F801000, 0x3C00}, // 1 + 2^-11: tie, kept LSB even, rounds down
		{0x3F803000, 0x3C02}, // 1 + 3x2^-11: tie, kept LSB odd, rounds up
		{0x3F801001, 0x3C01}, // just above the tie rounds up
		{0x477FE000, 0x7BFF}, // 65504, the largest finite half
		{0x477FEFFF, 0x7BFF}, // just below the 65520 tie
		{0x477FF000, 0x7C00}, // 65520: tie with an odd LSB carries to Inf
		{0x47800000, 0x7C00}, // 65536 overflows
		{0xC7800000, 0xFC00}, // -65536 overflows to -Inf
		{0x7F800000, 0x7C00}, // +Inf
		{0x7FC00001, 0x7E00}, // quiet NaN with a payload
		{0xFF800001, 0xFE00}, // signaling NaN, negative
		{0x38800000, 0x0400}, // 2^-14, the smallest normal half
		{0x387FF000, 0x0400}, // subnormal range rounding up into the normals
		{0x33800000, 0x0001}, // 2^-24, the smallest subnormal half
		{0x33000000, 0x0001}, // 0.5x2^-24: half up (RNE: 0x0000)
		{0x33C00000, 0x0002}, // 1.5x2^-24
		{0x34200000, 0x0003}, // 2.5x2^-24: half up (RNE: 0x0002)
		{0xB4200000, 0x8003}, // -2.5x2^-24
		{0x32FFFFFF, 0x0000}, // below half the smallest subnormal underflows
	} {
		f := math.Float32frombits(tc.bits)
		if got := Float32ToFloat16(f); got != tc.want {
			t.Errorf("Float32ToFloat16(%#08x) = %#04x, want %#04x", tc.bits, got, tc.want)
		}
		if got := float32ToFloat16Oracle(f); got != tc.want {
			t.Errorf("oracle(%#08x) = %#04x, want %#04x", tc.bits, got, tc.want)
		}
	}
}

func FuzzFloat32ToFloat16(f *testing.F) {
	for _, b := range []uint32{0, 0x80000000, 0x3F801000, 0x477FF000, 0x7FC00001, 0x34200000, 0x387FF000} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		v := math.Float32frombits(bits)
		if got, want := Float32ToFloat16(v), float32ToFloat16Oracle(v); got != want {
			t.Fatalf("Float32ToFloat16(%#08x) = %#04x, oracle %#04x", bits, got, want)
		}
	})
}
