package compress

import (
	"math/rand"
	"testing"
)

// decodeSink and encodeSink keep the benchmarks' results live.
var (
	decodeSink []float32
	encodeSink []byte
)

// benchCodecs are the codecs the benchmarks run, by sub-benchmark name.
var benchCodecs = []struct {
	name string
	c    Codec
}{{"raw", Raw{}}, {"float16", Float16{}}, {"int8", Int8{}}, {"topk", TopK{Frac: 0.1}}}

// benchUpdate is one paper-size update: K=10 classes x d=10 000.
func benchUpdate() []float32 {
	rng := rand.New(rand.NewSource(1))
	u := make([]float32, 10*10000)
	for i := range u {
		u[i] = float32(rng.NormFloat64())
	}
	return u
}

// BenchmarkCodecEncode encodes one paper-size update per op with each
// codec; SetBytes is the raw update, so MB/s is update bytes encoded per
// second.
func BenchmarkCodecEncode(b *testing.B) {
	u := benchUpdate()
	for _, tc := range benchCodecs {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(u)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = tc.c.Encode(u)
			}
		})
	}
}

// BenchmarkCodecDecode decodes one paper-size update per op with each
// codec; SetBytes is the encoded payload, so MB/s is wire bytes decoded
// per second.
func BenchmarkCodecDecode(b *testing.B) {
	u := benchUpdate()
	n := len(u)
	for _, tc := range benchCodecs {
		c, data := tc.c, tc.c.Encode(u)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := c.Decode(data, n)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = out
			}
		})
	}
}
