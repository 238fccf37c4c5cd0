package fedcore

import (
	"math/rand"
	"testing"

	"fhdnn/internal/compress"
)

// benchParams is one paper-size update: K=10 classes x d=10 000.
func benchParams() []float32 {
	rng := rand.New(rand.NewSource(1))
	u := make([]float32, 10*10000)
	for i := range u {
		u[i] = float32(rng.NormFloat64())
	}
	return u
}

// decodeSink keeps the benchmark's decoded updates live.
var decodeSink []float32

// BenchmarkDecodeEnvelope checks and decodes one 400 020 B raw envelope
// per op: header, CRC32 and the raw codec.
func BenchmarkDecodeEnvelope(b *testing.B) {
	u := benchParams()
	data, err := EncodeEnvelope(compress.Raw{}, u)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := DecodeEnvelope(data, len(u))
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = out
	}
}

// BenchmarkBundleAdd folds one update into a warm accumulator per op.
func BenchmarkBundleAdd(b *testing.B) {
	up := Update{Params: benchParams()}
	var agg Bundle
	agg.Add(up)
	b.SetBytes(int64(4 * len(up.Params)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Add(up)
	}
}
