package fedcore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"fhdnn/internal/compress"
)

func testUpdate(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func TestEnvelopeRoundTripAllCodecs(t *testing.T) {
	params := testUpdate(257, 3)
	for _, id := range AllCodecIDs() {
		codec, ok := CodecFor(id)
		if !ok {
			t.Fatalf("registered id %d has no codec", id)
		}
		enc := codec
		if id == CodecTopK {
			enc = compress.TopK{Frac: 0.25} // encoding needs a kept fraction
		}
		data, err := EncodeEnvelope(enc, params)
		if err != nil {
			t.Fatalf("%s: encode: %v", CodecName(id), err)
		}
		got, gotID, err := DecodeEnvelope(data, len(params))
		if err != nil {
			t.Fatalf("%s: decode: %v", CodecName(id), err)
		}
		if gotID != id {
			t.Fatalf("codec id %d round-tripped as %d", id, gotID)
		}
		if len(got) != len(params) {
			t.Fatalf("%s: decoded %d values, want %d", CodecName(id), len(got), len(params))
		}
		if id == CodecRaw {
			for i := range got {
				if got[i] != params[i] {
					t.Fatalf("raw codec must be lossless at index %d", i)
				}
			}
		}
		// wantN = 0 means "self-described": decode without an expectation
		if _, _, err := DecodeEnvelope(data, 0); err != nil {
			t.Fatalf("%s: self-described decode: %v", CodecName(id), err)
		}
	}
}

func TestEnvelopeWireBytesAgree(t *testing.T) {
	// The accounting helper and the actual frame must agree byte-for-byte
	// for every codec — this is the no-drift guarantee between the fl
	// simulator and the flnet wire.
	params := testUpdate(512, 7)
	codecs := []compress.Codec{compress.Raw{}, compress.Float16{}, compress.Int8{}, compress.TopK{Frac: 0.1}}
	for _, c := range codecs {
		data, err := EncodeEnvelope(c, params)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := WireBytes(c, len(params)), len(data); got != want {
			t.Fatalf("%s: WireBytes %d, frame is %d bytes", c.Name(), got, want)
		}
	}
	// int8 must deliver >= 3.5x savings over raw at realistic sizes
	n := 10 * 2048
	raw, int8 := WireBytes(compress.Raw{}, n), WireBytes(compress.Int8{}, n)
	if ratio := float64(raw) / float64(int8); ratio < 3.5 {
		t.Fatalf("int8 envelope ratio %.2f, want >= 3.5", ratio)
	}
}

func TestEnvelopeDecodeErrors(t *testing.T) {
	params := testUpdate(64, 5)
	good, err := EncodeEnvelope(compress.Int8{}, params)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", good[:10], ErrEnvelopeTruncated},
		{"magic", corrupt(func(b []byte) { b[0] = 'X' }), ErrEnvelopeMagic},
		{"version", corrupt(func(b []byte) { b[4] = 99 }), ErrEnvelopeVersion},
		{"codec", corrupt(func(b []byte) { b[5] = 200 }), ErrEnvelopeCodec},
		{"reserved", corrupt(func(b []byte) { b[6] = 1 }), ErrEnvelopePayload},
		{"count", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 63) }), ErrEnvelopeCount},
		{"truncated", good[:len(good)-3], ErrEnvelopeTruncated},
		{"checksum", corrupt(func(b []byte) { b[len(b)-1] ^= 0x40 }), ErrEnvelopeChecksum},
		{"payload", corrupt(func(b []byte) {
			// shrink the payload but fix up length and checksum so only
			// the codec-level length check can catch it
			b[12] = byte(len(b) - EnvelopeOverhead - 1)
			binary.LittleEndian.PutUint32(b[16:], crcOf(b[EnvelopeOverhead:len(b)-1]))
		})[:len(good)-1], ErrEnvelopePayload},
	}
	for _, tc := range cases {
		_, _, err := DecodeEnvelope(tc.data, 64)
		if err == nil {
			t.Fatalf("%s: corrupt envelope accepted", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
	// wantN mismatch with an otherwise valid envelope
	if _, _, err := DecodeEnvelope(good, 65); !errors.Is(err, ErrEnvelopeCount) {
		t.Fatalf("count mismatch error = %v", err)
	}
}

// rawEnvelope assembles an envelope byte-for-byte, bypassing
// EncodeEnvelope's self-consistency, so tests can claim arbitrary
// counts against arbitrary payloads.
func rawEnvelope(id CodecID, count int, payload []byte) []byte {
	b := make([]byte, EnvelopeOverhead+len(payload))
	copy(b, EnvelopeMagic[:])
	b[4] = EnvelopeVersion
	b[5] = byte(id)
	binary.LittleEndian.PutUint32(b[8:], uint32(count))
	binary.LittleEndian.PutUint32(b[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[16:], crcOf(payload))
	copy(b[EnvelopeOverhead:], payload)
	return b
}

func TestEnvelopeSelfDescribedAmplificationCapped(t *testing.T) {
	// A top-k frame with k=0 carries a 4-byte payload but a free-choice
	// element count; before the amplification cap, these 24 wire bytes
	// could demand a multi-hundred-megabyte allocation on a
	// self-described (wantN == 0) decode.
	frame := rawEnvelope(CodecTopK, 1<<20, make([]byte, 4))
	if _, _, err := DecodeEnvelope(frame, 0); !errors.Is(err, ErrEnvelopeCount) {
		t.Fatalf("amplified self-described decode: error %v, want ErrEnvelopeCount", err)
	}
	// The same empty payload with a count inside the slack decodes fine.
	got, _, err := DecodeEnvelope(rawEnvelope(CodecTopK, 64, make([]byte, 4)), 0)
	if err != nil {
		t.Fatalf("small self-described decode: %v", err)
	}
	if len(got) != 64 {
		t.Fatalf("decoded %d values, want 64", len(got))
	}
	// A caller-supplied wantN is the caller's own sizing decision: the
	// cap must not second-guess it.
	if _, _, err := DecodeEnvelope(frame, 1<<20); err != nil {
		t.Fatalf("caller-sized decode: %v", err)
	}
}

func TestEncodeEnvelopeRejectsUnregisteredCodec(t *testing.T) {
	if _, err := EncodeEnvelope(unregisteredCodec{}, []float32{1}); err == nil {
		t.Fatal("unregistered codec must be rejected")
	}
}

type unregisteredCodec struct{}

func (unregisteredCodec) Name() string                              { return "mystery" }
func (unregisteredCodec) Encode(u []float32) []byte                 { return nil }
func (unregisteredCodec) EncodedLen(n int) int                      { return 0 }
func (unregisteredCodec) EncodeInto(dst []byte, u []float32)        {}
func (unregisteredCodec) Decode(d []byte, n int) ([]float32, error) { return nil, nil }
func (unregisteredCodec) DecodeInto(dst []float32, d []byte) error  { return nil }

func TestParseCodec(t *testing.T) {
	for _, name := range []string{"raw", "float16", "int8", "topk", "topk:0.25"} {
		c, err := ParseCodec(name)
		if err != nil || c == nil {
			t.Fatalf("ParseCodec(%q): %v", name, err)
		}
	}
	if c, _ := ParseCodec("topk:0.25"); c.(compress.TopK).Frac != 0.25 {
		t.Fatal("topk fraction not parsed")
	}
	for _, name := range []string{"", "gzip", "topk:x",
		"topk:NaN", "topk:Inf", "topk:0", "topk:-1", "topk:1.5", "topk:2"} {
		if _, err := ParseCodec(name); err == nil {
			t.Fatalf("ParseCodec(%q) accepted", name)
		}
	}
}

func TestCodecNames(t *testing.T) {
	for _, id := range AllCodecIDs() {
		if CodecName(id) == "unknown" {
			t.Fatalf("id %d unnamed", id)
		}
		c, _ := CodecFor(id)
		if round, ok := CodecIDOf(c); !ok || round != id {
			t.Fatalf("id %d does not round-trip through CodecIDOf", id)
		}
	}
	if CodecName(200) != "unknown" {
		t.Fatal("unregistered id must be unknown")
	}
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
