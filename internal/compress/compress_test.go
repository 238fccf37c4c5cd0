package compress

import (
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomUpdate(rng *rand.Rand, n int) []float32 {
	u := make([]float32, n)
	for i := range u {
		u[i] = float32(rng.NormFloat64() * 0.1)
	}
	return u
}

func TestFloat16KnownValues(t *testing.T) {
	cases := map[float32]uint16{
		0:     0x0000,
		1:     0x3C00,
		-2:    0xC000,
		0.5:   0x3800,
		65504: 0x7BFF, // max finite half
	}
	for f, want := range cases {
		if got := Float32ToFloat16(f); got != want {
			t.Fatalf("Float32ToFloat16(%v) = %#x, want %#x", f, got, want)
		}
		if back := Float16ToFloat32(want); back != f {
			t.Fatalf("Float16ToFloat32(%#x) = %v, want %v", want, back, f)
		}
	}
}

func TestFloat16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := Float16ToFloat32(Float32ToFloat16(inf)); !math.IsInf(float64(got), 1) {
		t.Fatalf("+Inf round trip = %v", got)
	}
	nan := float32(math.NaN())
	if got := Float16ToFloat32(Float32ToFloat16(nan)); !math.IsNaN(float64(got)) {
		t.Fatalf("NaN round trip = %v", got)
	}
	// overflow saturates to Inf
	if got := Float16ToFloat32(Float32ToFloat16(1e10)); !math.IsInf(float64(got), 1) {
		t.Fatalf("overflow = %v, want +Inf", got)
	}
	// tiny values underflow to (signed) zero
	if got := Float16ToFloat32(Float32ToFloat16(1e-10)); got != 0 {
		t.Fatalf("underflow = %v, want 0", got)
	}
}

// Property: float16 round trip is within half-precision tolerance for
// normal-range values.
func TestFloat16RoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := float32(rng.NormFloat64() * 100)
			back := Float16ToFloat32(Float32ToFloat16(v))
			if math.Abs(float64(back-v)) > float64(math.Abs(float64(v))*1e-3)+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat16Subnormals(t *testing.T) {
	// 2^-17 is subnormal in binary16 (min normal is 2^-14)
	v := float32(math.Ldexp(1, -17))
	back := Float16ToFloat32(Float32ToFloat16(v))
	if math.Abs(float64(back-v)) > float64(v)*0.01 {
		t.Fatalf("subnormal round trip %v -> %v", v, back)
	}
}

func TestFloat16CodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := randomUpdate(rng, 1000)
	got, size, err := RoundTrip(Float16{}, u)
	if err != nil {
		t.Fatal(err)
	}
	if size != 2000 {
		t.Fatalf("float16 size %d, want 2000", size)
	}
	for i := range u {
		if math.Abs(float64(got[i]-u[i])) > float64(math.Abs(float64(u[i]))*1e-3)+1e-4 {
			t.Fatalf("value %d: %v -> %v", i, u[i], got[i])
		}
	}
}

func TestInt8CodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := randomUpdate(rng, 1000)
	got, size, err := RoundTrip(Int8{}, u)
	if err != nil {
		t.Fatal(err)
	}
	if size != 1004 {
		t.Fatalf("int8 size %d, want 1004", size)
	}
	// error bounded by one quantization step
	maxAbs := 0.0
	for _, v := range u {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	step := maxAbs / 127
	for i := range u {
		if math.Abs(float64(got[i]-u[i])) > step*0.51 {
			t.Fatalf("value %d: %v -> %v (step %v)", i, u[i], got[i], step)
		}
	}
}

func TestInt8ZeroUpdate(t *testing.T) {
	got, _, err := RoundTrip(Int8{}, make([]float32, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 0 {
			t.Fatal("zero update must round trip to zeros")
		}
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	u := []float32{0.1, -5, 0.2, 3, -0.05, 0, 4, -0.3}
	got, size, err := RoundTrip(TopK{Frac: 0.25}, u) // keep 2
	if err != nil {
		t.Fatal(err)
	}
	if size != 4+8*2 {
		t.Fatalf("topk size %d", size)
	}
	want := []float32{0, -5, 0, 0, 0, 0, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topk[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTopKFracBounds(t *testing.T) {
	u := []float32{1, 2}
	got, _, err := RoundTrip(TopK{Frac: 0}, u) // clamps to k=1
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range got {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("k=1 kept %d values", nonzero)
	}
	got, _, err = RoundTrip(TopK{Frac: 5}, u) // clamps to all
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatal("frac > 1 must keep everything")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	u := []float32{1, 1, 1, 1}
	a := TopK{Frac: 0.5}.Encode(u)
	b := TopK{Frac: 0.5}.Encode(u)
	if string(a) != string(b) {
		t.Fatal("topk must be deterministic under ties")
	}
}

// A non-finite input entry never decodes to a finite value: it comes
// back non-finite at its own index, or the whole update does.
func TestNonFiniteSurvivesRoundTrip(t *testing.T) {
	inf := float32(math.Inf(1))
	finite := func(v float32) bool { return v-v == 0 }
	for _, c := range []Codec{Raw{}, Float16{}, Int8{}, TopK{Frac: 0.5}} {
		for _, bad := range []float32{float32(math.NaN()), inf, -inf} {
			for at := 0; at < 4; at++ {
				u := []float32{1, -2, 3, 4}
				u[at] = bad
				got, _, err := RoundTrip(c, u)
				if err != nil {
					t.Fatalf("%s, %v at %d: %v", c.Name(), bad, at, err)
				}
				everywhere := true
				for _, v := range got {
					everywhere = everywhere && !finite(v)
				}
				if finite(got[at]) && !everywhere {
					t.Fatalf("%s, %v at %d decoded to the finite %v", c.Name(), bad, at, got)
				}
			}
		}
	}
}

// NaN ranks as the largest magnitude: it is kept, and it does not
// displace the true top entry the way an unordered comparison did.
func TestTopKKeepsNaN(t *testing.T) {
	got, _, err := RoundTrip(TopK{Frac: 0.5}, []float32{1, -2, float32(math.NaN()), 4})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 || got[2] == got[2] || got[3] != 4 {
		t.Fatalf("topk kept %v, want [0 0 NaN 4]", got)
	}
}

// The payload of a finite update is part of the wire contract: these
// bytes were recorded before the non-finite handling went in.
func TestLossyPayloadGolden(t *testing.T) {
	small := randomUpdate(rand.New(rand.NewSource(99)), 16)
	large := randomUpdate(rand.New(rand.NewSource(99)), 4096)
	for _, tc := range []struct {
		codec    Codec
		small    string
		largeCRC uint32
	}{
		{Int8{}, "03c9a43a24a9e5ca7af6557f400e7d03bea20872", 0x1dacd8f3},
		{TopK{Frac: 0.25}, "040000000400000090ea1c3e07000000717f233e0a000000807c213e0f000000a725133e", 0x625f4d0d},
	} {
		if got := hex.EncodeToString(tc.codec.Encode(small)); got != tc.small {
			t.Fatalf("%s payload %s, want %s", tc.codec.Name(), got, tc.small)
		}
		if got := crc32.ChecksumIEEE(tc.codec.Encode(large)); got != tc.largeCRC {
			t.Fatalf("%s payload crc %#x, want %#x", tc.codec.Name(), got, tc.largeCRC)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := (Float16{}).Decode([]byte{1, 2, 3}, 2); err == nil {
		t.Fatal("float16 bad length accepted")
	}
	if _, err := (Int8{}).Decode([]byte{1, 2}, 4); err == nil {
		t.Fatal("int8 bad length accepted")
	}
	if _, err := (TopK{Frac: 0.5}).Decode([]byte{1}, 4); err == nil {
		t.Fatal("topk short payload accepted")
	}
	// out-of-range index
	bad := make([]byte, 4+8)
	putU32(bad, 1)
	putU32(bad[4:], 99)
	if _, err := (TopK{Frac: 0.5}).Decode(bad, 4); err == nil {
		t.Fatal("topk bad index accepted")
	}
	// index with the top bit set: wraps negative on 32-bit platforms,
	// huge positive on 64-bit — must be rejected either way, never
	// reach the output write
	wrap := make([]byte, 4+8)
	putU32(wrap, 1)
	putU32(wrap[4:], 0x80000000)
	if _, err := (TopK{Frac: 0.5}).Decode(wrap, 4); err == nil {
		t.Fatal("topk wrap-around index accepted")
	}
}

func TestCodecNames(t *testing.T) {
	for _, c := range []Codec{Float16{}, Int8{}, TopK{Frac: 0.1}} {
		if c.Name() == "" {
			t.Fatal("codec must have a name")
		}
	}
}

// Compression ratios: the reason these baselines exist.
func TestCompressionRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := randomUpdate(rng, 10000)
	raw := 4 * len(u)
	for _, tc := range []struct {
		codec Codec
		want  float64 // expected compression factor
		tol   float64
	}{
		{Float16{}, 2, 0.01},
		{Int8{}, 4, 0.01},
		{TopK{Frac: 0.1}, 5, 0.05},
	} {
		_, size, err := RoundTrip(tc.codec, u)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(raw) / float64(size)
		if math.Abs(ratio-tc.want)/tc.want > tc.tol {
			t.Fatalf("%s: compression %vx, want ~%vx", tc.codec.Name(), ratio, tc.want)
		}
	}
}
