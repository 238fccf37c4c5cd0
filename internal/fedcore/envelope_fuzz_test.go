package fedcore

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"fhdnn/internal/compress"
)

// FuzzEnvelopeDecode hammers the wire-envelope parser with arbitrary
// bytes: malformed headers, truncated payloads, bad checksums and
// codec-id mismatches must all surface as errors, never as panics or as
// silently wrong decodes, and no envelope may decode to more values than
// its size allows. Seeds cover a valid envelope per codec plus
// each distinct corruption class.
func FuzzEnvelopeDecode(f *testing.F) {
	params := testUpdate(32, 9)
	for _, c := range []compress.Codec{
		compress.Raw{}, compress.Float16{}, compress.Int8{}, compress.TopK{Frac: 0.25},
	} {
		data, err := EncodeEnvelope(c, params)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)               // valid
		f.Add(data[:len(data)-5]) // truncated payload
		bad := append([]byte(nil), data...)
		bad[len(bad)-1] ^= 0x80 // checksum mismatch
		f.Add(bad)
		mis := append([]byte(nil), data...)
		mis[5] = byte(CodecTopK) // codec-id mismatch vs payload
		binary.LittleEndian.PutUint32(mis[16:], crcOf(mis[EnvelopeOverhead:]))
		f.Add(mis)
	}
	f.Add([]byte{})
	f.Add([]byte("FHDU"))
	f.Add([]byte("not an envelope at all, definitely longer than the header"))

	// Boundary seeds around the decoder's hard limits: a raw frame
	// claiming exactly maxEnvelopeElems, one past it, a header whose
	// payloadLen disagrees with the buffer, a truncated header one byte
	// short of EnvelopeOverhead, and a k=0 top-k amplification probe.
	atMax := rawEnvelope(CodecRaw, maxEnvelopeElems, make([]byte, 8))
	f.Add(atMax)
	f.Add(rawEnvelope(CodecRaw, maxEnvelopeElems+1, make([]byte, 8)))
	disagree := rawEnvelope(CodecRaw, 2, make([]byte, 8))
	binary.LittleEndian.PutUint32(disagree[12:], 99) // payloadLen lies
	f.Add(disagree)
	f.Add(atMax[:EnvelopeOverhead-1])
	f.Add(rawEnvelope(CodecTopK, maxEnvelopeElems, make([]byte, 4)))
	// A count with the top bit set: int(uint32) is negative on 32-bit
	// platforms, so there the count < 0 guard must reject it.
	wrap := rawEnvelope(CodecRaw, 0, make([]byte, 8))
	binary.LittleEndian.PutUint32(wrap[8:], 0x80000000)
	f.Add(wrap)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, wantN := range []int{0, 32} {
			got, _, err := DecodeEnvelope(data, wantN)
			if err != nil {
				if got != nil {
					t.Fatal("failed decode must not return params")
				}
				continue
			}
			count := int(binary.LittleEndian.Uint32(data[8:]))
			if len(got) != count {
				t.Fatalf("decoded %d values, header says %d", len(got), count)
			}
			if wantN > 0 && len(got) != wantN {
				t.Fatalf("decoded %d values, caller expected %d", len(got), wantN)
			}
			// The amplification cap: a self-described decode returns at
			// most 256 values per payload byte, plus slack.
			if wantN == 0 && len(got) > 64+256*(len(data)-EnvelopeOverhead) {
				t.Fatalf("self-described decode of a %d B envelope returned %d values", len(data), len(got))
			}
		}
		checkDecodeEnvelopeInto(t, data, 32)
		if got, _, err := DecodeEnvelope(data, 0); err == nil {
			checkDecodeEnvelopeInto(t, data, len(got))
		}
	})
}

// envelopeErrors are the typed envelope failures, in the order their
// checks run.
var envelopeErrors = []error{
	ErrEnvelopeMagic, ErrEnvelopeVersion, ErrEnvelopeCodec, ErrEnvelopeTruncated,
	ErrEnvelopeChecksum, ErrEnvelopeCount, ErrEnvelopePayload,
}

// envelopeErrorClass is the typed failure err wraps, nil for none.
func envelopeErrorClass(err error) error {
	for _, e := range envelopeErrors {
		if errors.Is(err, e) {
			return e
		}
	}
	return err
}

// checkDecodeEnvelopeInto decodes data into a NaN-filled dst of n values
// and holds the result to DecodeEnvelope(data, n): the same codec id, the
// same error class, and on success the same bits.
func checkDecodeEnvelopeInto(t *testing.T, data []byte, n int) {
	t.Helper()
	want, wantID, wantErr := DecodeEnvelope(data, n)
	dst := make([]float32, n)
	for i := range dst {
		dst[i] = float32(math.NaN())
	}
	id, err := DecodeEnvelopeInto(dst, data)
	if envelopeErrorClass(err) != envelopeErrorClass(wantErr) || id != wantID {
		t.Fatalf("n %d: DecodeEnvelopeInto (%d, %v), DecodeEnvelope (%d, %v)", n, id, err, wantID, wantErr)
	}
	if err != nil {
		return
	}
	for i := range want {
		if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
			t.Fatalf("n %d, entry %d: DecodeEnvelopeInto %#x, DecodeEnvelope %#x",
				n, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
		}
	}
}
