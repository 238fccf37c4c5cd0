// Package compress implements the update-compression baselines of the
// federated learning literature that the FHDnn paper positions itself
// against (federated dropout / sketched updates [Bouacida et al.; Caldas
// et al.]): float16 truncation, linear int8 quantization, and top-k
// sparsification of flat model updates. FHDnn's answer to communication
// cost is architectural (small HD updates); these codecs answer it by
// lossy-compressing big CNN updates, and the comparison experiment shows
// what each buys and costs.
package compress

import (
	"fmt"
	"math"
	"sync"

	"fhdnn/internal/invariant"
	"fhdnn/internal/tensor"
)

// Codec compresses a flat model update into bytes and back.
//
// A non-finite input never decodes to a finite value: an update holding a
// NaN or +-Inf entry decodes with a non-finite value at that entry or at
// every entry, so a lossy codec cannot carry a corrupted update past the
// server's non-finite quarantine. (TopK ships only k entries; it keeps
// the non-finite ones first.)
type Codec interface {
	// Encode serializes the update: EncodeInto a fresh buffer of
	// EncodedLen(len(update)) bytes.
	Encode(update []float32) []byte
	// EncodedLen is the exact size of Encode's output for an update of n
	// values. Every codec here sizes by n alone; a codec whose size
	// depends on the values must not implement Codec this way.
	EncodedLen(n int) int
	// EncodeInto writes Encode(update) into dst, which must be exactly
	// EncodedLen(len(update)) bytes long (it panics otherwise). Every
	// byte of dst is written, whatever it held.
	EncodeInto(dst []byte, update []float32)
	// Decode reconstructs an update of length n from data. Structurally
	// invalid payloads yield a *DecodeError; Decode never panics, since
	// codec payloads now arrive from the network (see fedcore's envelope).
	Decode(data []byte, n int) ([]float32, error)
	// DecodeInto is Decode into the caller's dst, with n = len(dst): on
	// success every entry of dst is overwritten, whatever it held. On an
	// error dst holds unspecified values.
	DecodeInto(dst []float32, data []byte) error
	// Name identifies the codec in reports.
	Name() string
}

// DecodeError is the typed error returned by every codec for a
// structurally invalid payload: wrong length, out-of-range or duplicate
// indices, truncated headers. It lets network-facing callers distinguish
// corrupt payloads (quarantine material) from programming errors.
type DecodeError struct {
	Codec  string
	Reason string
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("compress: %s: %s", e.Codec, e.Reason)
}

func decodeErrf(codec, format string, args ...any) *DecodeError {
	return &DecodeError{Codec: codec, Reason: fmt.Sprintf(format, args...)}
}

// encodeNew is every codec's Encode: EncodeInto a fresh buffer. It is
// generic so that a codec with fields (TopK) is not boxed into a Codec,
// an allocation per call.
func encodeNew[C Codec](c C, update []float32) []byte {
	out := make([]byte, c.EncodedLen(len(update)))
	c.EncodeInto(out, update)
	return out
}

// checkEncodeLen panics unless dst is exactly EncodedLen(n) bytes.
func checkEncodeLen[C Codec](c C, dst []byte, n int) {
	if want := c.EncodedLen(n); len(dst) != want {
		invariant.Failf("compress: %s: EncodeInto of %d values into %d bytes, want %d", c.Name(), n, len(dst), want)
	}
}

// decodeNew is every codec's Decode: DecodeInto a fresh slice of n.
func decodeNew(c Codec, data []byte, n int) ([]float32, error) {
	if n < 0 {
		return nil, decodeErrf(c.Name(), "negative length %d", n)
	}
	out := make([]float32, n)
	if err := c.DecodeInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- raw float32 -------------------------------------------------------

// Raw is the identity codec: 4 bytes per value, little-endian IEEE-754.
// It exists so the uncompressed baseline travels through the same wire
// envelope (and the same accounting) as the lossy codecs.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// Encode implements Codec.
func (c Raw) Encode(update []float32) []byte { return encodeNew(c, update) }

// EncodedLen implements Codec: 4 bytes per value.
func (Raw) EncodedLen(n int) int { return 4 * n }

// EncodeInto implements Codec.
func (c Raw) EncodeInto(dst []byte, update []float32) {
	checkEncodeLen(c, dst, len(update))
	tensor.PutFloat32s(dst, update)
}

// Decode implements Codec.
func (c Raw) Decode(data []byte, n int) ([]float32, error) { return decodeNew(c, data, n) }

// DecodeInto implements Codec.
func (Raw) DecodeInto(dst []float32, data []byte) error {
	if len(data) != 4*len(dst) {
		return decodeErrf("raw", "payload %d bytes, want %d", len(data), 4*len(dst))
	}
	tensor.GetFloat32s(dst, data)
	return nil
}

// ---- float16 ----------------------------------------------------------

// Float16 truncates each weight to IEEE-754 binary16 — the "22 MB" wire
// format of the paper's ResNet accounting.
type Float16 struct{}

// Name implements Codec.
func (Float16) Name() string { return "float16" }

// Encode implements Codec.
func (c Float16) Encode(update []float32) []byte { return encodeNew(c, update) }

// EncodedLen implements Codec: 2 bytes per value.
func (Float16) EncodedLen(n int) int { return 2 * n }

// EncodeInto implements Codec.
func (c Float16) EncodeInto(dst []byte, update []float32) {
	checkEncodeLen(c, dst, len(update))
	for i, v := range update {
		h := Float32ToFloat16(v)
		dst[2*i] = byte(h)
		dst[2*i+1] = byte(h >> 8)
	}
}

// Decode implements Codec.
func (c Float16) Decode(data []byte, n int) ([]float32, error) { return decodeNew(c, data, n) }

// DecodeInto implements Codec.
func (Float16) DecodeInto(dst []float32, data []byte) error {
	if len(data) != 2*len(dst) {
		return decodeErrf("float16", "payload %d bytes, want %d", len(data), 2*len(dst))
	}
	for i := range dst {
		h := uint16(data[2*i]) | uint16(data[2*i+1])<<8
		dst[i] = Float16ToFloat32(h)
	}
	return nil
}

// Float32ToFloat16 converts to IEEE-754 binary16. Normal results round
// to nearest, ties to even; overflow saturates to Inf, and NaN maps to the
// quiet NaN 0x7E00 with its sign. Subnormal results round half up, not to
// even: 2.5x2^-24 encodes as 0x0003, where round-to-nearest-even gives
// 0x0002. Deployed clients share that rounding, so it stays.
func Float32ToFloat16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	x := bits & 0x7FFFFFFF
	exp := int32(x>>23) - 127 + 15
	switch {
	case exp >= 0x1F: // overflow or inf/nan
		if x > 0x7F800000 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // Inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// subnormal: shift mantissa (with implicit leading 1)
		mant := (x&0x7FFFFF | 0x800000) >> uint32(1-exp)
		// round half up
		if mant&0x1000 != 0 {
			mant += 0x2000
		}
		return sign | uint16(mant>>13)
	default:
		// Rebias the exponent in place and round to nearest even on the
		// 13 dropped bits without a branch: adding 0x0FFF plus the kept
		// LSB carries out of the dropped bits exactly when they exceed
		// half, or equal it with an odd LSB. A carry out of the mantissa
		// bumps the exponent, up to 0x7C00 (Inf) from 0x7BFF.
		return sign | uint16((x-112<<23+0x0FFF+(x>>13)&1)>>13)
	}
}

// Float16ToFloat32 expands a binary16 value.
func Float16ToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1F:
		return math.Float32frombits(sign | 0xFF<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// ---- int8 linear quantization ------------------------------------------

// Int8 quantizes the update linearly to 8 bits with a per-update scale —
// the classical 4x compression of uplink quantization schemes.
type Int8 struct{}

// Name implements Codec.
func (Int8) Name() string { return "int8" }

// Encode implements Codec.
func (c Int8) Encode(update []float32) []byte { return encodeNew(c, update) }

// EncodedLen implements Codec: a 4-byte scale and 1 byte per value.
func (Int8) EncodedLen(n int) int { return 4 + n }

// EncodeInto stores a float32 scale followed by one int8 code per value.
// An update with a NaN or +-Inf entry gets a NaN scale and zero codes, so
// every value decodes to NaN.
func (c Int8) EncodeInto(dst []byte, update []float32) {
	checkEncodeLen(c, dst, len(update))
	var maxKey uint32
	for _, v := range update {
		maxKey = max(maxKey, magnitudeKey(v))
	}
	if maxKey == infBits {
		putU32(dst, math.Float32bits(float32(math.NaN())))
		clear(dst[4:])
		return
	}
	maxAbs := float64(math.Float32frombits(maxKey))
	scale := float32(1)
	if maxAbs > 0 {
		scale = float32(maxAbs / 127)
	}
	putU32(dst, math.Float32bits(scale))
	for i, v := range update {
		q := int32(math.Round(float64(v) / float64(scale)))
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		dst[4+i] = byte(int8(q))
	}
}

// Decode implements Codec.
func (c Int8) Decode(data []byte, n int) ([]float32, error) { return decodeNew(c, data, n) }

// DecodeInto implements Codec.
func (Int8) DecodeInto(dst []float32, data []byte) error {
	if len(data) != 4+len(dst) {
		return decodeErrf("int8", "payload %d bytes, want %d", len(data), 4+len(dst))
	}
	scale := math.Float32frombits(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
	for i := range dst {
		dst[i] = float32(int8(data[4+i])) * scale
	}
	return nil
}

// ---- top-k sparsification ----------------------------------------------

// TopK transmits only the k largest-magnitude entries (as index/value
// pairs); the receiver fills the rest with zeros. Frac is the kept
// fraction (e.g. 0.1 keeps 10% of the weights). NaN ranks as the largest
// magnitude, level with +-Inf, so a non-finite entry is kept and shipped
// verbatim. Among equal magnitudes the lower indices are kept.
type TopK struct {
	Frac float64
}

// Name implements Codec.
func (c TopK) Name() string { return fmt.Sprintf("topk(%.2g)", c.Frac) }

// Encode implements Codec.
func (c TopK) Encode(update []float32) []byte { return encodeNew(c, update) }

// kept is how many of n entries the codec ships: Frac*n rounded down,
// at least 1 and at most n.
func (c TopK) kept(n int) int {
	return min(max(int(c.Frac*float64(n)), 1), n)
}

// EncodedLen implements Codec: a 4-byte count and 8 bytes per kept entry.
func (c TopK) EncodedLen(n int) int { return 4 + 8*c.kept(n) }

// EncodeInto stores uint32 count, then (uint32 index, float32 value)
// pairs in ascending index order. It selects the k-th largest
// magnitudeKey as a threshold with tensor.Select, then keeps, in one
// ascending pass, every entry above it and the lowest-index entries equal
// to it up to k: the set a sort by (magnitude descending, index
// ascending) would keep.
func (c TopK) EncodeInto(dst []byte, update []float32) {
	checkEncodeLen(c, dst, len(update))
	n := len(update)
	k := c.kept(n)
	putU32(dst, uint32(k))
	if k == 0 {
		return
	}
	kp := topKKeys.Get().(*[]uint32)
	if cap(*kp) < 2*n {
		*kp = make([]uint32, 2*n)
	}
	keys := (*kp)[:2*n]
	for i, v := range update {
		keys[i] = magnitudeKey(v)
	}
	_, t := tensor.Select(keys[:n], keys[n:], n-k)
	topKKeys.Put(kp)
	ties := k // how many entries of magnitude t are kept
	for _, v := range update {
		if magnitudeKey(v) > t {
			ties--
		}
	}
	w := dst[4:]
	for j, v := range update {
		m := magnitudeKey(v)
		if m > t || m == t && ties > 0 {
			if m == t {
				ties--
			}
			putU32(w, uint32(j))
			putU32(w[4:], math.Float32bits(v))
			w = w[8:]
		}
	}
}

// topKKeys recycles TopK.EncodeInto's selection scratch: n keys and n
// more for tensor.Select to partition through, 8 B per value.
var topKKeys = sync.Pool{New: func() any { return new([]uint32) }}

// infBits is the bit pattern of float32 +Inf.
const infBits = 0x7f800000

// magnitudeKey is |v| as float32 bits with NaN mapped to infBits: a key
// whose unsigned order is the magnitude order, level for every non-finite
// value.
func magnitudeKey(v float32) uint32 {
	return min(math.Float32bits(v)&^(1<<31), infBits)
}

// Decode implements Codec; see DecodeInto.
func (c TopK) Decode(data []byte, n int) ([]float32, error) { return decodeNew(c, data, n) }

// DecodeInto implements Codec: it zeroes dst, then writes the k shipped
// entries. Encode always emits strictly increasing indices, so DecodeInto
// requires them: an index that is out of range, repeated, or out of order
// marks a corrupt (or adversarial) payload and is rejected with a typed
// error rather than silently overwriting entries.
func (c TopK) DecodeInto(dst []float32, data []byte) error {
	n := len(dst)
	if len(data) < 4 {
		return decodeErrf("topk", "payload too short (%d bytes)", len(data))
	}
	k := int(getU32(data))
	if k < 0 || k > n {
		return decodeErrf("topk", "count %d out of range for %d values", k, n)
	}
	if len(data) != 4+8*k {
		return decodeErrf("topk", "payload %d bytes, want %d", len(data), 4+8*k)
	}
	clear(dst)
	prev := -1
	for i := 0; i < k; i++ {
		j := int(getU32(data[4+8*i:]))
		// j < 0 only on 32-bit platforms, where int(uint32) can wrap
		// negative; without the explicit check it would reach the
		// monotonicity test with a misleading error.
		if j < 0 || j >= n {
			return decodeErrf("topk", "index %d out of range %d", j, n)
		}
		if j <= prev {
			if j == prev {
				return decodeErrf("topk", "duplicate index %d", j)
			}
			return decodeErrf("topk", "indices not strictly increasing at %d", j)
		}
		prev = j
		dst[j] = math.Float32frombits(getU32(data[8+8*i:]))
	}
	return nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// RoundTrip compresses and decompresses, returning the reconstruction and
// the compressed size in bytes.
func RoundTrip(c Codec, update []float32) ([]float32, int, error) {
	data := c.Encode(update)
	out, err := c.Decode(data, len(update))
	return out, len(data), err
}
