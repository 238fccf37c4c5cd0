package hdc

import (
	"fmt"
	"math"
)

// Quantizer implements the scale-up / round / scale-down scheme of paper
// Sec. 3.5.2, which bounds the damage a bit flip can do to an integer-coded
// class hypervector. Each class hypervector is amplified by a gain
// G = (2^(B-1)-1)/max|c| so the largest magnitude occupies the full integer
// range, truncated to integers, transmitted, and scaled back down by G at
// the receiver.
type Quantizer struct {
	Bits int // integer bitwidth B (paper uses 32)
}

// NewQuantizer returns a quantizer with the given bitwidth. Bitwidths from
// 2 to 32 are supported.
func NewQuantizer(bits int) *Quantizer {
	if bits < 2 || bits > 32 {
		panic(fmt.Sprintf("hdc: unsupported quantizer bitwidth %d", bits))
	}
	return &Quantizer{Bits: bits}
}

// MaxMag returns the largest representable magnitude, 2^(B-1)-1.
func (q *Quantizer) MaxMag() int32 {
	return int32(1<<(q.Bits-1)) - 1
}

// Quantize scales c up by the per-vector gain and truncates to integers.
// It returns the integer codes and the gain used (needed to scale down).
// A zero vector gets gain MaxMag, as if max|c| were 1, so a code corrupted
// in transit dequantizes to at most about 1 in magnitude, the same bound
// every non-zero vector has relative to its own max|c|.
func (q *Quantizer) Quantize(c []float32) (codes []int32, gain float64) {
	maxAbs := 0.0
	for _, v := range c {
		a := math.Abs(float64(v))
		if a > maxAbs {
			maxAbs = a
		}
	}
	gain = float64(q.MaxMag())
	if maxAbs > 0 {
		gain /= maxAbs
	}
	codes = make([]int32, len(c))
	for i, v := range c {
		codes[i] = int32(float64(v) * gain) // truncation, per the paper
	}
	return codes, gain
}

// Dequantize scales integer codes back down by gain.
func (q *Quantizer) Dequantize(codes []int32, gain float64) []float32 {
	out := make([]float32, len(codes))
	inv := 1 / gain
	for i, v := range codes {
		out[i] = float32(float64(v) * inv)
	}
	return out
}

// RoundTrip quantizes and immediately dequantizes, returning the
// quantization error the receiver would see on a clean channel.
func (q *Quantizer) RoundTrip(c []float32) []float32 {
	codes, gain := q.Quantize(c)
	return q.Dequantize(codes, gain)
}
