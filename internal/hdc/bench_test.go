package hdc

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fhdnn/internal/tensor"
)

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	e := NewEncoder(rng, 10000, 512)
	z := make([]float32, 512)
	for i := range z {
		z[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(z)
	}
}

func encodeBatchFixture(b *testing.B, rows int) (*Encoder, *tensor.Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	e := NewEncoder(rng, 10000, 512)
	z := tensor.Randn(rng, 1, rows, 512)
	// operand bytes per pass: features + kernel plan + hypervectors
	b.SetBytes(int64(rows*512+len(e.offs)+rows*10000) * 4)
	return e, z
}

func BenchmarkEncodeBatchNaive(b *testing.B) {
	e, z := encodeBatchFixture(b, 64)
	phi := ternary(e)
	out := tensor.New(64, e.D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracleEncodeBatch(e, phi, z, out)
	}
}

// BenchmarkEncodeBatch times the paper-size encode (n = 512, d = 10 000)
// of a 64-row batch and of train_noniid's 5 000-row split, reporting
// µs per sample.
func BenchmarkEncodeBatch(b *testing.B) {
	for _, rows := range []int{64, 5000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			e, z := encodeBatchFixture(b, rows)
			out := tensor.New(rows, e.D)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EncodeBatchInto(out, z)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*rows), "µs/sample")
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	e := NewEncoder(rng, 10000, 512)
	e.Binarize = false
	z := make([]float32, 512)
	for i := range z {
		z[i] = float32(rng.NormFloat64())
	}
	h := e.Encode(z)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Decode(h)
	}
}

// similarityFixture is the paper-size job of one client or one evaluation:
// K=10 prototypes, d=10000, n bipolar hypervectors, a one-shot-trained
// model. The ...Naive benchmarks run the three-pass Cosine loop kept as
// the oracle in kernel_test.go.
func similarityFixture(b *testing.B, n int) (*Model, *tensor.Tensor, []int) {
	b.Helper()
	const d, k = 10000, 10
	rng := rand.New(rand.NewSource(3))
	enc := tensor.New(n, d)
	labels := make([]int, n)
	for s := 0; s < n; s++ {
		copy(enc.Data()[s*d:(s+1)*d], RandomBipolar(rng, d))
		labels[s] = s % k
	}
	m := NewModel(k, d)
	m.OneShotTrain(enc, labels)
	return m, enc, labels
}

func BenchmarkPredictNaive(b *testing.B) {
	m, enc, _ := similarityFixture(b, 100)
	h := enc.Data()[:m.D]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oraclePredict(m, h)
	}
}

func BenchmarkPredict(b *testing.B) {
	m, enc, _ := similarityFixture(b, 100)
	h := enc.Data()[:m.D]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(h)
	}
}

// BenchmarkLaneSweep times one row-block sweep of the paper-size model,
// per row width this CPU runs, over a different block of hypervectors each
// iteration, the lanes built before the timer starts; ns/elem is per entry
// of one row.
func BenchmarkLaneSweep(b *testing.B) {
	m, enc, _ := similarityFixture(b, 64)
	ln := m.lanes()
	defer putLanes(ln)
	data := enc.Data()
	for _, w := range rowKernels() {
		if w.skip != "" {
			continue
		}
		b.Run(w.name, func(b *testing.B) {
			var blk block
			dots, _ := blk.scratch(ln.kp, m.K)
			for i := 0; i < b.N; i++ {
				m.fillBlock(&blk, data, nil, i*int(w.rowKernel)%enc.Dim(0), enc.Dim(0))
				w.sweep(dots, &blk.hh, ln.cs, data, &blk.offs, m.D, ln.kp, ln.kp)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*int(w.rowKernel)*m.D), "ns/elem")
		})
	}
}

func BenchmarkAccuracyNaive(b *testing.B) {
	m, enc, labels := similarityFixture(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracleAccuracy(m, enc, labels)
	}
}

func BenchmarkAccuracy(b *testing.B) {
	m, enc, labels := similarityFixture(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Accuracy(enc, labels)
	}
}

func BenchmarkRefineEpochNaive(b *testing.B) {
	m, enc, labels := similarityFixture(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracleRefineEpoch(m, enc, labels)
	}
}

func BenchmarkRefineEpoch(b *testing.B) {
	m, enc, labels := similarityFixture(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RefineEpoch(enc, labels)
	}
}

func BenchmarkQuantizeRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	q := NewQuantizer(32)
	c := make([]float32, 10000)
	for i := range c {
		c[i] = float32(rng.NormFloat64() * 50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.RoundTrip(c)
	}
}

func BenchmarkBundle(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := RandomBipolar(rng, 10000)
	y := RandomBipolar(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bundle(x, y)
	}
}

// benchModel is the paper-size global, K=10 x d=10 000, with random
// prototypes.
func benchModel() *Model {
	rng := rand.New(rand.NewSource(3))
	m := NewModel(10, 10000)
	flat := m.Flat()
	for i := range flat {
		flat[i] = float32(rng.NormFloat64())
	}
	return m
}

// BenchmarkWriteModel serializes the paper-size global, the encode behind
// a checkpoint and each round's model fetch.
func BenchmarkWriteModel(b *testing.B) {
	m := benchModel()
	b.SetBytes(int64(4 * m.K * m.D))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadModel parses the paper-size global, a client's side of the
// model fetch.
func BenchmarkReadModel(b *testing.B) {
	var buf bytes.Buffer
	if _, err := benchModel().WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(buf.Bytes())
		if _, err := ReadModel(rd); err != nil {
			b.Fatal(err)
		}
	}
}
