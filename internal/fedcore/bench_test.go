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

// benchCommit commits one fleet-shaped round per op: 197 updates of
// 20 480 values (K=10 x d=2048), one in four 90 % zeros.
func benchCommit(b *testing.B, agg Aggregator) {
	const n, d = 197, 20480
	for _, row := range robustRows(rand.New(rand.NewSource(1)), "fleet", n, d) {
		agg.Add(Update{Params: row, Samples: 1})
	}
	global := make([]float32, d)
	b.SetBytes(4 * n * d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Commit(global)
	}
}

func BenchmarkMedianCommit(b *testing.B)      { benchCommit(b, &Median{}) }
func BenchmarkTrimmedMeanCommit(b *testing.B) { benchCommit(b, &TrimmedMean{Frac: 0.2}) }
