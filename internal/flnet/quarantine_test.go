package flnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// quarantineReasonOracle is the single-pass quarantine scan that
// quarantineReason replaced (norm, peak and finiteness in one float64
// loop), kept verbatim so the split scan is held to its exact reasons and
// 422 details.
func quarantineReasonOracle(flat []float32, maxNorm float64) (reason, detail string) {
	var sum float64
	peakIdx, peakAbs := -1, 0.0
	for i, v := range flat {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return QuarantineNonFinite, fmt.Sprintf("non-finite parameter %v at index %d", v, i)
		}
		sum += float64(f * f)
		if a := math.Abs(f); a > peakAbs {
			peakIdx, peakAbs = i, a
		}
	}
	if maxNorm > 0 {
		if norm := math.Sqrt(sum); norm > maxNorm {
			return QuarantineNormBound, fmt.Sprintf(
				"L2 norm %.4g exceeds limit %g (largest parameter %.4g at index %d)",
				norm, maxNorm, peakAbs, peakIdx)
		}
	}
	return "", ""
}

// oracleNorm is the oracle's norm chain, for limits placed exactly at or
// one ulp below an update's norm.
func oracleNorm(flat []float32) float64 {
	var sum float64
	for _, v := range flat {
		f := float64(v)
		sum += float64(f * f)
	}
	return math.Sqrt(sum)
}

func checkQuarantineOracle(t *testing.T, name string, flat []float32, maxNorm float64) {
	t.Helper()
	gotR, gotD := quarantineReason(flat, maxNorm)
	wantR, wantD := quarantineReasonOracle(flat, maxNorm)
	if gotR != wantR || gotD != wantD {
		t.Fatalf("%s, maxNorm %v: got (%q, %q), oracle (%q, %q)", name, maxNorm, gotR, gotD, wantR, wantD)
	}
}

func TestQuarantineReasonMatchesOracle(t *testing.T) {
	nan := float32(math.NaN())
	posInf, negInf := float32(math.Inf(1)), float32(math.Inf(-1))
	clean := func() []float32 {
		u := make([]float32, 1001)
		for i := range u {
			u[i] = float32(math.Sin(float64(i))) * 3
		}
		return u
	}
	with := func(at int, v float32) []float32 {
		u := clean()
		u[at] = v
		return u
	}
	huge := make([]float32, 100000)
	for i := range huge {
		huge[i] = math.MaxFloat32
	}
	negHuge := append([]float32(nil), huge...)
	negHuge[7] = -math.MaxFloat32

	cases := map[string][]float32{
		"empty":                 {},
		"clean":                 clean(),
		"all zero":              make([]float32, 64),
		"negative zero":         {float32(math.Copysign(0, -1)), 0, float32(math.Copysign(0, -1))},
		"subnormals":            {math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff)},
		"100000 x MaxFloat32":   huge,
		"-MaxFloat32 among max": negHuge,
		"tied peaks":            {1, -4, 4, -4, 2},
		"two non-finite":        with(3, nan),
		"NaN payload":           with(500, math.Float32frombits(0xffc00001)),
	}
	cases["two non-finite"][900] = posInf
	for _, at := range []int{0, 500, 1000} {
		cases[fmt.Sprintf("NaN at %d", at)] = with(at, nan)
		cases[fmt.Sprintf("+Inf at %d", at)] = with(at, posInf)
		cases[fmt.Sprintf("-Inf at %d", at)] = with(at, negInf)
	}
	for name, flat := range cases {
		limits := []float64{0, -1, 1, 1e3, math.Inf(1), math.NaN()}
		if norm := oracleNorm(flat); norm > 0 && !math.IsInf(norm, 0) && !math.IsNaN(norm) {
			limits = append(limits, norm, math.Nextafter(norm, 0))
		}
		for _, maxNorm := range limits {
			checkQuarantineOracle(t, name, flat, maxNorm)
		}
	}
	// The boundary itself: a limit equal to the norm admits, one ulp below
	// refuses.
	u := clean()
	norm := oracleNorm(u)
	if r, _ := quarantineReason(u, norm); r != "" {
		t.Fatalf("limit == norm refused: %q", r)
	}
	if r, _ := quarantineReason(u, math.Nextafter(norm, 0)); r != QuarantineNormBound {
		t.Fatalf("limit one ulp below the norm: reason %q, want %q", r, QuarantineNormBound)
	}
}

// FuzzQuarantineReason holds quarantineReason to the oracle on arbitrary
// float32 bit patterns (4 little-endian bytes per parameter) under every
// kind of norm gate.
func FuzzQuarantineReason(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0xc0, 0x7f})             // 1, NaN
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f, 0xff, 0xff, 0x7f, 0xff}) // +Max, -Max
	f.Add([]byte{0, 0, 0x80, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80})    // -Inf, subnormal, -0
	f.Add([]byte{0, 0, 0x20, 0x41, 0, 0, 0x20, 0xc1, 0, 0, 0x80}) // 10, -10, a stray byte
	f.Fuzz(func(t *testing.T, data []byte) {
		flat := make([]float32, len(data)/4)
		for i := range flat {
			flat[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		for _, maxNorm := range []float64{0, 1, 1e3, math.Inf(1)} {
			checkQuarantineOracle(t, "fuzz", flat, maxNorm)
		}
	})
}
