package fedcore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"fhdnn/internal/compress"
)

// The wire envelope is the self-describing frame around every compressed
// update on the flnet protocol. Layout (little-endian):
//
//	offset 0   4  magic "FHDU"
//	       4   1  format version (currently 1)
//	       5   1  codec id (see CodecID)
//	       6   2  reserved, must be zero
//	       8   4  element count (float32 values in the decoded update)
//	      12   4  payload length in bytes
//	      16   4  CRC32 (IEEE) of the payload
//	      20   …  codec payload
//
// The element count makes the frame self-describing (a receiver that
// knows its model dimensions cross-checks it; one that does not can still
// decode), the codec id tells the receiver which compress.Codec packed
// the payload, and the checksum turns line corruption into a typed decode
// error that the server's quarantine path can refuse with HTTP 422
// instead of folding garbage into the global model.

// EnvelopeMagic starts every envelope.
var EnvelopeMagic = [4]byte{'F', 'H', 'D', 'U'}

// EnvelopeVersion is the current format version.
const EnvelopeVersion = 1

// EnvelopeOverhead is the fixed header size in bytes.
const EnvelopeOverhead = 20

// maxEnvelopeElems caps the element count a decoder will allocate for
// when the caller cannot supply an expected size (matches the 64M-entry
// envelope of hdc serialization).
const maxEnvelopeElems = 1 << 26

// CodecID identifies a codec on the wire. IDs are part of the protocol;
// never renumber them.
type CodecID uint8

// Wire codec ids.
const (
	CodecRaw     CodecID = 0
	CodecFloat16 CodecID = 1
	CodecInt8    CodecID = 2
	CodecTopK    CodecID = 3
)

// codecNames are the canonical handshake names, indexed by CodecID.
var codecNames = [...]string{"raw", "float16", "int8", "topk"}

// CodecName returns the canonical handshake name of a codec id
// ("unknown" for an unregistered id).
func CodecName(id CodecID) string {
	if int(id) < len(codecNames) {
		return codecNames[id]
	}
	return "unknown"
}

// AllCodecIDs lists every registered codec id, in wire order.
func AllCodecIDs() []CodecID {
	return []CodecID{CodecRaw, CodecFloat16, CodecInt8, CodecTopK}
}

// CodecFor returns a decoder instance for a wire codec id. The TopK
// instance carries no Frac — decoding reads the element count from the
// payload, so none is needed.
func CodecFor(id CodecID) (compress.Codec, bool) {
	switch id {
	case CodecRaw:
		return compress.Raw{}, true
	case CodecFloat16:
		return compress.Float16{}, true
	case CodecInt8:
		return compress.Int8{}, true
	case CodecTopK:
		return compress.TopK{}, true
	}
	return nil, false
}

// CodecIDOf maps a codec instance to its wire id.
func CodecIDOf(c compress.Codec) (CodecID, bool) {
	switch c.(type) {
	case compress.Raw:
		return CodecRaw, true
	case compress.Float16:
		return CodecFloat16, true
	case compress.Int8:
		return CodecInt8, true
	case compress.TopK:
		return CodecTopK, true
	}
	return 0, false
}

// ParseCodec resolves a codec spec ("raw", "float16", "int8", "topk"
// or "topk:0.1" with an explicit kept fraction) to a codec instance.
func ParseCodec(name string) (compress.Codec, error) {
	switch {
	case name == "raw":
		return compress.Raw{}, nil
	case name == "float16":
		return compress.Float16{}, nil
	case name == "int8":
		return compress.Int8{}, nil
	case name == "topk":
		return compress.TopK{Frac: 0.1}, nil
	case strings.HasPrefix(name, "topk:"):
		frac, err := strconv.ParseFloat(strings.TrimPrefix(name, "topk:"), 64)
		// The explicit !(frac > 0) form also rejects NaN, which slips past
		// a plain frac <= 0 check.
		if err != nil || !(frac > 0) || frac > 1 {
			return nil, fmt.Errorf("fedcore: bad topk fraction in %q", name)
		}
		return compress.TopK{Frac: frac}, nil
	}
	return nil, fmt.Errorf("fedcore: unknown codec %q", name)
}

// Typed envelope decode failures. All are wrapped with detail; match with
// errors.Is.
var (
	ErrEnvelopeMagic     = errors.New("fedcore: bad envelope magic")
	ErrEnvelopeVersion   = errors.New("fedcore: unsupported envelope version")
	ErrEnvelopeCodec     = errors.New("fedcore: unknown envelope codec")
	ErrEnvelopeTruncated = errors.New("fedcore: truncated envelope")
	ErrEnvelopeChecksum  = errors.New("fedcore: envelope checksum mismatch")
	ErrEnvelopeCount     = errors.New("fedcore: envelope element count mismatch")
	ErrEnvelopePayload   = errors.New("fedcore: bad envelope payload")
)

// EncodeEnvelope frames params with the given codec. It fails only for a
// codec that has no wire id. The frame is one buffer, sized by the
// codec's EncodedLen, with the payload encoded in place behind the header.
func EncodeEnvelope(c compress.Codec, params []float32) ([]byte, error) {
	id, ok := CodecIDOf(c)
	if !ok {
		return nil, fmt.Errorf("fedcore: codec %s has no wire id", c.Name())
	}
	out := make([]byte, WireBytes(c, len(params)))
	payload := out[EnvelopeOverhead:]
	c.EncodeInto(payload, params)
	copy(out, EnvelopeMagic[:])
	out[4] = EnvelopeVersion
	out[5] = byte(id)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(params)))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	return out, nil
}

// DecodeEnvelope parses and validates an envelope, returning the decoded
// update and the codec it was framed with. wantN > 0 additionally
// requires the element count to match (a server that knows its model
// dimensions should always pass it — it bounds the allocation before any
// payload is touched). Every failure mode returns a typed error;
// DecodeEnvelope never panics on malformed input.
func DecodeEnvelope(data []byte, wantN int) ([]float32, CodecID, error) {
	codec, id, count, payload, err := openEnvelope(data, wantN)
	if err != nil {
		return nil, id, err
	}
	params, err := codec.Decode(payload, count)
	if err != nil {
		return nil, id, fmt.Errorf("%w: %v", ErrEnvelopePayload, err)
	}
	return params, id, nil
}

// DecodeEnvelopeInto is DecodeEnvelope with wantN = len(dst), decoding
// into dst instead of a fresh slice: the same checks in the same order,
// the same typed errors. On success every entry of dst is overwritten; on
// an error dst holds unspecified values.
func DecodeEnvelopeInto(dst []float32, data []byte) (CodecID, error) {
	codec, id, count, payload, err := openEnvelope(data, len(dst))
	if err == nil && count != len(dst) {
		// Only an empty dst gets here: openEnvelope skips the count
		// check for wantN 0.
		err = fmt.Errorf("%w: %d elements, want %d", ErrEnvelopeCount, count, len(dst))
	}
	if err != nil {
		return id, err
	}
	if err := codec.DecodeInto(dst, payload); err != nil {
		return id, fmt.Errorf("%w: %v", ErrEnvelopePayload, err)
	}
	return id, nil
}

// openEnvelope checks an envelope's header, size and checksum, and
// returns its codec, element count and payload. The id is set as soon as
// the header names a registered codec, errors included.
func openEnvelope(data []byte, wantN int) (codec compress.Codec, id CodecID, count int, payload []byte, err error) {
	if len(data) < EnvelopeOverhead {
		return nil, 0, 0, nil, fmt.Errorf("%w: %d bytes, header needs %d",
			ErrEnvelopeTruncated, len(data), EnvelopeOverhead)
	}
	if [4]byte(data[:4]) != EnvelopeMagic {
		return nil, 0, 0, nil, fmt.Errorf("%w: %q", ErrEnvelopeMagic, data[:4])
	}
	if data[4] != EnvelopeVersion {
		return nil, 0, 0, nil, fmt.Errorf("%w: %d", ErrEnvelopeVersion, data[4])
	}
	id = CodecID(data[5])
	codec, ok := CodecFor(id)
	if !ok {
		return nil, 0, 0, nil, fmt.Errorf("%w: id %d", ErrEnvelopeCodec, id)
	}
	if data[6] != 0 || data[7] != 0 {
		return nil, 0, 0, nil, fmt.Errorf("%w: nonzero reserved bytes", ErrEnvelopePayload)
	}
	count = int(binary.LittleEndian.Uint32(data[8:]))
	payloadLen := int(binary.LittleEndian.Uint32(data[12:]))
	if wantN > 0 && count != wantN {
		return nil, id, 0, nil, fmt.Errorf("%w: %d elements, want %d", ErrEnvelopeCount, count, wantN)
	}
	if count < 0 || count > maxEnvelopeElems {
		return nil, id, 0, nil, fmt.Errorf("%w: implausible element count %d", ErrEnvelopeCount, count)
	}
	payload = data[EnvelopeOverhead:]
	if payloadLen != len(payload) {
		return nil, id, 0, nil, fmt.Errorf("%w: header claims %d payload bytes, have %d",
			ErrEnvelopeTruncated, payloadLen, len(payload))
	}
	// Amplification cap for self-described decodes: with wantN == 0 the
	// count is the attacker's claim, and a sparse codec (top-k with k=0)
	// lets a 24-byte frame demand a maxEnvelopeElems allocation. Bound the
	// decoded size by the bytes physically received — 256 elements (1 KiB
	// of float32) per payload byte plus slack for empty updates — so the
	// allocation an envelope can cause is proportional to its own size.
	// Callers that pass wantN chose that size themselves; the cap does not
	// apply.
	if wantN == 0 && count > 64+256*len(payload) {
		return nil, id, 0, nil, fmt.Errorf("%w: self-described count %d from %d payload bytes",
			ErrEnvelopeCount, count, len(payload))
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[16:]); got != want {
		return nil, id, 0, nil, fmt.Errorf("%w: crc32 %08x, header says %08x", ErrEnvelopeChecksum, got, want)
	}
	return codec, id, count, payload, nil
}
