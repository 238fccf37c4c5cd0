package fedcore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"fhdnn/internal/compress"
	"fhdnn/internal/tensor"
)

// encodeEnvelopeOracle is EncodeEnvelope as it was before the one-buffer
// frame: encode the payload, then copy it behind a header in a second
// buffer.
func encodeEnvelopeOracle(c compress.Codec, params []float32) []byte {
	id, ok := CodecIDOf(c)
	if !ok {
		panic("unregistered codec")
	}
	payload := c.Encode(params)
	out := make([]byte, EnvelopeOverhead+len(payload))
	copy(out, EnvelopeMagic[:])
	out[4] = EnvelopeVersion
	out[5] = byte(id)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(params)))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	copy(out[EnvelopeOverhead:], payload)
	return out
}

// wireCodecs are the codecs with a wire id, top-k at several fractions.
var wireCodecs = []compress.Codec{
	compress.Raw{}, compress.Float16{}, compress.Int8{},
	compress.TopK{Frac: 0.1}, compress.TopK{Frac: 0.01}, compress.TopK{Frac: 0.5}, compress.TopK{Frac: 1},
}

// Every envelope is byte-identical to the oracle's, for every wire codec,
// over updates of NaN, +-Inf, -0 and subnormals mixed into normals, and
// over updates made only of them.
func TestEncodeEnvelopeMatchesOracle(t *testing.T) {
	special := []float32{
		float32(math.NaN()), math.Float32frombits(0xFFC00001), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, math.Float32frombits(1), math.Float32frombits(0x807FFFFF),
		math.Float32frombits(0x00400000), math.MaxFloat32, -math.SmallestNonzeroFloat32,
	}
	rng := rand.New(rand.NewSource(3))
	var updates [][]float32
	for _, n := range []int{0, 1, 7, 1024, 20480} {
		u := make([]float32, n)
		for i := range u {
			u[i] = float32(rng.NormFloat64())
			if rng.Intn(8) == 0 {
				u[i] = special[rng.Intn(len(special))]
			}
		}
		updates = append(updates, u)
	}
	for _, v := range special {
		updates = append(updates, []float32{v}, []float32{v, 1, -2, v})
	}
	updates = append(updates, special)
	for _, u := range updates {
		for _, c := range wireCodecs {
			got, err := EncodeEnvelope(c, u)
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeEnvelopeOracle(c, u); !bytes.Equal(got, want) {
				t.Fatalf("%s, %d values: envelope differs from the oracle's", c.Name(), len(u))
			}
		}
	}
}

// EncodeEnvelope makes one buffer, the envelope, for the codecs whose
// encode needs no scratch (top-k's select does).
func TestEncodeEnvelopeAllocs(t *testing.T) {
	u := benchParams()
	for _, c := range []compress.Codec{compress.Raw{}, compress.Float16{}, compress.Int8{}} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := EncodeEnvelope(c, u); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("%s: EncodeEnvelope made %.1f allocations, want 1", c.Name(), allocs)
		}
	}
}

// WireBytes is the length of the envelope EncodeEnvelope makes, for every
// wire codec and every size, without encoding anything.
func TestWireBytesIsEnvelopeLength(t *testing.T) {
	for _, n := range []int{1, 7, 1024, 20480, 100000} {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(i%13) - 6
		}
		for _, c := range wireCodecs {
			data, err := EncodeEnvelope(c, x)
			if err != nil {
				t.Fatal(err)
			}
			if got := WireBytes(c, n); got != len(data) {
				t.Fatalf("%s: WireBytes(%d) = %d, envelope is %d bytes", c.Name(), n, got, len(data))
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = WireBytes(compress.TopK{Frac: 0.1}, 100000) }); allocs != 0 {
		t.Fatalf("WireBytes made %.1f allocations, want 0", allocs)
	}
}

// A warm aggregator — one that has run a round and been Reset — commits
// the bits a fresh one commits, also for a round shorter than the last,
// and a warm round of Add, Commit and Reset allocates at most its row's
// count: nothing for the sums and the clip, what tensor.ParallelFor costs
// for the robust commits, and the fresh commit root for the sharded tree.
// An allocation in any policy's Add would add one per update.
func TestWarmAccumulatorReused(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	rng := rand.New(rand.NewSource(4))
	round := func(n int) []Update {
		ups := make([]Update, 3)
		for i := range ups {
			p := make([]float32, n)
			for j := range p {
				p[j] = float32(rng.NormFloat64())
			}
			ups[i] = Update{Params: p, Samples: 1 + i, Client: i}
		}
		return ups
	}
	commit := func(a Aggregator, ups []Update) []float32 {
		for _, u := range ups {
			a.Add(u)
		}
		g := make([]float32, len(ups[0].Params))
		a.Commit(g)
		a.Reset()
		return g
	}
	sharded := func() Aggregator {
		s, err := NewSharded(2, func() Aggregator { return &Bundle{} })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []struct {
		name string
		mk   func() Aggregator
		most [2]float64 // allocations per warm round at 1 and 2 workers
	}{
		{"bundle", func() Aggregator { return &Bundle{} }, [2]float64{0, 0}},
		{"fedavg", func() Aggregator { return &FedAvg{} }, [2]float64{0, 0}},
		{"median", func() Aggregator { return &Median{} }, [2]float64{1, 4}},
		{"trimmed", func() Aggregator { return &TrimmedMean{Frac: 0.2} }, [2]float64{2, 5}},
		{"normclip", func() Aggregator { return &NormClip{Inner: &Bundle{}, Bound: 10} }, [2]float64{0, 0}},
		{"sharded", sharded, [2]float64{2, 2}},
	} {
		for w, most := range c.most {
			tensor.SetWorkers(w + 1)
			warm := c.mk()
			commit(warm, round(1000))
			for _, n := range []int{1000, 10, 1000} {
				ups := round(n)
				got, want := commit(warm, ups), commit(c.mk(), ups)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s, %d values: warm commit entry %d = %v, fresh %v", c.name, n, i, got[i], want[i])
					}
				}
			}
			ups := round(1000)
			g := make([]float32, 1000)
			allocs := testing.AllocsPerRun(10, func() {
				for _, u := range ups {
					warm.Add(u)
				}
				warm.Commit(g)
				warm.Reset()
			})
			if allocs > most {
				t.Errorf("%s at %d workers: a warm round made %.1f allocations, want <= %v", c.name, w+1, allocs, most)
			}
		}
	}
}

// encodeSink keeps the benchmark's envelopes live.
var encodeSink []byte

// BenchmarkEncodeEnvelope frames one paper-size update (K=10, d=10 000)
// per op with each wire codec: a client's side of an upload.
func BenchmarkEncodeEnvelope(b *testing.B) {
	u := benchParams()
	for _, c := range []compress.Codec{compress.Raw{}, compress.Float16{}, compress.Int8{}, compress.TopK{Frac: 0.1}} {
		b.Run(CodecName(mustCodecID(b, c)), func(b *testing.B) {
			b.SetBytes(int64(4 * len(u)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := EncodeEnvelope(c, u)
				if err != nil {
					b.Fatal(err)
				}
				encodeSink = data
			}
		})
	}
}

func mustCodecID(tb testing.TB, c compress.Codec) CodecID {
	id, ok := CodecIDOf(c)
	if !ok {
		tb.Fatalf("%s has no wire id", c.Name())
	}
	return id
}
