package compress

import (
	"math/rand"
	"testing"
)

// decodeSink keeps the benchmarks' decoded updates live.
var decodeSink []float32

// BenchmarkCodecDecode decodes one paper-size update (K=10 classes x
// d=10 000) per op with each codec; SetBytes is the encoded payload, so
// MB/s is wire bytes decoded per second.
func BenchmarkCodecDecode(b *testing.B) {
	const n = 10 * 10000
	rng := rand.New(rand.NewSource(1))
	u := make([]float32, n)
	for i := range u {
		u[i] = float32(rng.NormFloat64())
	}
	for _, tc := range []struct {
		name string
		c    Codec
	}{{"raw", Raw{}}, {"float16", Float16{}}, {"int8", Int8{}}, {"topk", TopK{Frac: 0.1}}} {
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
