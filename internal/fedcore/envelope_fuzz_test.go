package fedcore

import (
	"encoding/binary"
	"testing"

	"fhdnn/internal/compress"
)

// FuzzEnvelopeDecode hammers the wire-envelope parser with arbitrary
// bytes: malformed headers, truncated payloads, bad checksums and
// codec-id mismatches must all surface as errors, never as panics or as
// silently wrong decodes. Seeds cover a valid envelope per codec plus
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
		}
	})
}
