package hdc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fhdnn/internal/tensor"
)

// TestEncoderRowsSparseTernary checks the drawn Phi: every row holds
// exactly S = nonZeros(N) distinct features in ascending order, each
// +-1/sqrt(S), so every row has unit norm; the floor of 32 makes small-N
// rows dense; and both signs occur about equally often.
func TestEncoderRowsSparseTernary(t *testing.T) {
	for _, c := range []struct{ n, s int }{{4, 4}, {10, 10}, {32, 32}, {33, 32}, {320, 32}, {321, 33}, {512, 52}, {617, 62}} {
		if got := nonZeros(c.n); got != c.s {
			t.Fatalf("nonZeros(%d) = %d, want %d", c.n, got, c.s)
		}
		e := NewEncoder(rand.New(rand.NewSource(1)), 300, c.n)
		if e.S != c.s {
			t.Fatalf("n=%d: S = %d, want %d", c.n, e.S, c.s)
		}
		phi := ternary(e)
		negs := 0
		for i := 0; i < e.D; i++ {
			prev := -1
			for k := 0; k < e.S; k++ {
				j, neg := e.entry(i, k)
				if j <= prev || j >= e.N {
					t.Fatalf("n=%d row %d: entry %d index %d after %d", c.n, i, k, j, prev)
				}
				prev = j
				if neg {
					negs++
				}
			}
			var nz int
			var norm float64
			for _, v := range phi[i] {
				if v != 0 {
					nz++
					norm += 1 / float64(e.S)
				}
			}
			if nz != e.S || math.Abs(norm-1) > 1e-12 {
				t.Fatalf("n=%d row %d: %d non-zeros, norm^2 %v", c.n, i, nz, norm)
			}
		}
		if frac := float64(negs) / float64(e.D*e.S); math.Abs(frac-0.5) > 0.05 {
			t.Fatalf("n=%d: %.3f of the entries are negative", c.n, frac)
		}
	}
}

func TestEncodeProducesBipolar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEncoder(rng, 100, 8)
	z := make([]float32, 8)
	for i := range z {
		z[i] = float32(rng.NormFloat64())
	}
	h := e.Encode(z)
	if len(h) != 100 {
		t.Fatalf("hypervector length %d", len(h))
	}
	for i, v := range h {
		if v != 1 && v != -1 {
			t.Fatalf("h[%d] = %v, want +-1", i, v)
		}
	}
}

func TestEncodeDeterministicFromSeed(t *testing.T) {
	z := []float32{1, -2, 3}
	e1 := NewEncoder(rand.New(rand.NewSource(7)), 64, 3)
	e2 := NewEncoder(rand.New(rand.NewSource(7)), 64, 3)
	h1, h2 := e1.Encode(z), e2.Encode(z)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("same seed must give identical encoders")
		}
	}
}

func TestEncodeWrongLengthPanics(t *testing.T) {
	e := NewEncoder(rand.New(rand.NewSource(3)), 16, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Encode(make([]float32, 5))
}

// Property: for the non-binarized encoder, Decode approximately inverts
// Encode when d >> n (random projections are near-isometries).
func TestDecodeApproximatelyInvertsEncode(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		d := 4000
		e := NewEncoder(rng, d, n)
		e.Binarize = false
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		h := e.Encode(x)
		got := e.Decode(h)
		var errSq, refSq float64
		for i := range x {
			d := float64(got[i] - x[i])
			errSq += float64(d * d)
			refSq += float64(float64(x[i]) * float64(x[i]))
		}
		if refSq == 0 {
			return true
		}
		return errSq/refSq < 0.05 // < 5% relative squared error
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// The information-dispersal claim of Sec. 3.5.1: noise added in HD space is
// attenuated by ~d/n when decoded back to feature space.
func TestDecodeSuppressesHDNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, d := 16, 8192
	e := NewEncoder(rng, d, n)
	e.Binarize = false
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	h := e.Encode(x)
	sigma := 1.0
	for i := range h {
		h[i] += float32(rng.NormFloat64() * sigma)
	}
	got := e.Decode(h)
	var mse float64
	for i := range x {
		diff := float64(got[i] - x[i])
		mse += float64(diff * diff)
	}
	mse /= float64(n)
	// Decoding averages d independent noise samples: per-coordinate error
	// variance ~ sigma^2 * n / d (up to constants). With n/d = 1/512 the
	// reconstruction error must be far below the injected noise power.
	if mse > 0.05*sigma*sigma {
		t.Fatalf("decoded MSE %v, want << %v (noise suppressed)", mse, sigma*sigma)
	}
}

func TestCosineBasics(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if c := Cosine(a, a); math.Abs(c-1) > 1e-9 {
		t.Fatalf("cos(a,a) = %v", c)
	}
	if c := Cosine(a, b); math.Abs(c) > 1e-9 {
		t.Fatalf("cos(a,b) = %v", c)
	}
	if c := Cosine(a, []float32{0, 0}); c != 0 {
		t.Fatalf("cos with zero vector = %v", c)
	}
}

func TestRandomBipolarQuasiOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 10000
	a := RandomBipolar(rng, d)
	b := RandomBipolar(rng, d)
	if c := math.Abs(Cosine(a, b)); c > 0.05 {
		t.Fatalf("random hypervectors should be quasi-orthogonal, cos = %v", c)
	}
}

func TestHammingDistance(t *testing.T) {
	a := []float32{1, 1, -1, -1}
	b := []float32{1, -1, -1, 1}
	if d := HammingDistance(a, b); d != 2 {
		t.Fatalf("Hamming = %d", d)
	}
}

// clusterData builds k Gaussian clusters in feature space with well
// separated means, returning features and labels.
func clusterData(rng *rand.Rand, k, perClass, n int, noise float64) (*tensor.Tensor, []int) {
	means := tensor.Randn(rng, 3.0, k, n)
	x := tensor.New(k*perClass, n)
	labels := make([]int, k*perClass)
	for c := 0; c < k; c++ {
		for s := 0; s < perClass; s++ {
			idx := c*perClass + s
			labels[idx] = c
			for j := 0; j < n; j++ {
				x.Data()[idx*n+j] = means.At(c, j) + float32(rng.NormFloat64()*noise)
			}
		}
	}
	return x, labels
}

func TestModelOneShotLearnsClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, labels := clusterData(rng, 4, 30, 16, 0.5)
	e := NewEncoder(rng, 2048, 16)
	enc := e.EncodeBatch(x)
	m := NewModel(4, 2048)
	m.OneShotTrain(enc, labels)
	if acc := m.Accuracy(enc, labels); acc < 0.95 {
		t.Fatalf("one-shot accuracy %v, want >= 0.95 on separable clusters", acc)
	}
}

func TestRefineImprovesOnHardData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, labels := clusterData(rng, 6, 40, 12, 2.2) // overlapping clusters
	e := NewEncoder(rng, 1024, 12)
	enc := e.EncodeBatch(x)
	m := NewModel(6, 1024)
	m.OneShotTrain(enc, labels)
	accBefore := m.Accuracy(enc, labels)
	for epoch := 0; epoch < 10; epoch++ {
		m.RefineEpoch(enc, labels)
	}
	accAfter := m.Accuracy(enc, labels)
	if accAfter < accBefore {
		t.Fatalf("refinement hurt training accuracy: %v -> %v", accBefore, accAfter)
	}
	if accAfter < 0.8 {
		t.Fatalf("refined accuracy %v too low", accAfter)
	}
}

func TestRefineAdaptiveImprovesOnHardData(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, labels := clusterData(rng, 6, 40, 12, 2.2)
	e := NewEncoder(rng, 1024, 12)
	enc := e.EncodeBatch(x)

	m := NewModel(6, 1024)
	m.OneShotTrain(enc, labels)
	before := m.Accuracy(enc, labels)
	for epoch := 0; epoch < 10; epoch++ {
		if refineEpoch(m, enc, labels, nil, 1.0) == 0 {
			break
		}
	}
	after := m.Accuracy(enc, labels)
	if after < before {
		t.Fatalf("adaptive refinement hurt: %v -> %v", before, after)
	}
	if after < 0.8 {
		t.Fatalf("adaptive refined accuracy %v too low", after)
	}
}

func TestRefineAdaptiveNoUpdateWhenCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x, labels := clusterData(rng, 3, 10, 8, 0.2) // trivially separable
	e := NewEncoder(rng, 512, 8)
	enc := e.EncodeBatch(x)
	m := NewModel(3, 512)
	m.OneShotTrain(enc, labels)
	if m.Accuracy(enc, labels) < 1 {
		t.Skip("data not trivially separable with this seed")
	}
	snapshot := m.Clone()
	if wrong := refineEpoch(m, enc, labels, nil, 1.0); wrong != 0 {
		t.Fatalf("unexpected mispredictions: %d", wrong)
	}
	if !m.Prototypes.Equal(snapshot.Prototypes, 0) {
		t.Fatal("adaptive refinement must not move prototypes when everything is correct")
	}
}

func TestRefineEpochCountsMispredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, labels := clusterData(rng, 3, 20, 8, 0.3)
	e := NewEncoder(rng, 1024, 8)
	enc := e.EncodeBatch(x)
	m := NewModel(3, 1024)
	m.OneShotTrain(enc, labels)
	w1 := m.RefineEpoch(enc, labels)
	if w1 < 0 || w1 > 60 {
		t.Fatalf("implausible misprediction count %d", w1)
	}
}

func TestFederatedBundlingEquivalence(t *testing.T) {
	// Two clients bundling disjoint data then summing models must equal one
	// client bundling all data (linearity of one-shot learning).
	rng := rand.New(rand.NewSource(11))
	x, labels := clusterData(rng, 3, 20, 8, 0.5)
	e := NewEncoder(rng, 512, 8)
	enc := e.EncodeBatch(x)

	whole := NewModel(3, 512)
	whole.OneShotTrain(enc, labels)

	half := 30
	c1 := NewModel(3, 512)
	c2 := NewModel(3, 512)
	enc1 := tensor.FromSlice(enc.Data()[:half*512], half, 512)
	enc2 := tensor.FromSlice(enc.Data()[half*512:], enc.Dim(0)-half, 512)
	c1.OneShotTrain(enc1, labels[:half])
	c2.OneShotTrain(enc2, labels[half:])
	c1.Prototypes.AddInPlace(c2.Prototypes)

	if !c1.Prototypes.Equal(whole.Prototypes, 1e-3) {
		t.Fatal("federated bundling must equal centralized bundling for one-shot training")
	}
}

func TestModelFlatRoundTrip(t *testing.T) {
	m := NewModel(2, 4)
	flat := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	m.SetFlat(flat)
	got := m.Flat()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatal("Flat/SetFlat mismatch")
		}
	}
	if m.Class(1)[0] != 5 {
		t.Fatalf("Class(1) = %v", m.Class(1))
	}
	if m.NumParams() != 8 || m.UpdateSizeBytes(4) != 32 {
		t.Fatal("size accounting wrong")
	}
}

func TestModelCloneIndependent(t *testing.T) {
	m := NewModel(1, 2)
	m.SetFlat([]float32{1, 2})
	c := m.Clone()
	c.Flat()[0] = 99
	if m.Flat()[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestQuantizerMaxCodeHitsRange(t *testing.T) {
	q := NewQuantizer(8)
	c := []float32{-3, 1, 2, 0.5}
	codes, gain := q.Quantize(c)
	maxAbs := int32(0)
	for _, v := range codes {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs != q.MaxMag() {
		t.Fatalf("max |code| = %d, want %d", maxAbs, q.MaxMag())
	}
	if gain <= 0 {
		t.Fatalf("gain = %v", gain)
	}
}

func TestQuantizerZeroVector(t *testing.T) {
	q := NewQuantizer(16)
	codes, gain := q.Quantize([]float32{0, 0, 0})
	// Gain MaxMag bounds what a corrupted code can dequantize to (~1); gain
	// 1 would hand a flipped high bit back at face value.
	if gain != float64(q.MaxMag()) {
		t.Fatalf("zero-vector gain = %v, want MaxMag %d", gain, q.MaxMag())
	}
	for _, v := range codes {
		if v != 0 {
			t.Fatal("zero vector must quantize to zeros")
		}
	}
}

// Property: round-trip error is bounded by the quantization step 1/gain.
func TestQuantizerRoundTripErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewQuantizer(8 + rng.Intn(24))
		c := make([]float32, 1+rng.Intn(64))
		for i := range c {
			c[i] = float32(rng.NormFloat64() * 100)
		}
		codes, gain := q.Quantize(c)
		back := q.Dequantize(codes, gain)
		step := 1 / gain
		for i := range c {
			// allow the quantization step plus float32 representation error
			tol := float64(step*1.01) + float64(math.Abs(float64(c[i]))*1e-6)
			if math.Abs(float64(back[i]-c[i])) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerBadBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQuantizer(1)
}

func TestPartialDimensionsRetainSimilarity(t *testing.T) {
	// Fig. 5's premise: zeroing a fraction p of dimensions retains ~(1-p)
	// of the dot product, because information is spread uniformly.
	rng := rand.New(rand.NewSource(12))
	d := 8192
	e := NewEncoder(rng, d, 32)
	z := make([]float32, 32)
	for i := range z {
		z[i] = float32(rng.NormFloat64())
	}
	h := e.Encode(z)
	proto := make([]float32, d)
	copy(proto, h)
	full := Dot(proto, h)
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		hv := make([]float32, d)
		copy(hv, h)
		perm := rng.Perm(d)
		for i := 0; i < int(frac*float64(d)); i++ {
			hv[perm[i]] = 0
		}
		got := Dot(proto, hv) / full
		if math.Abs(got-(1-frac)) > 0.05 {
			t.Fatalf("removing %.0f%% of dims retained %.3f of similarity, want ~%.2f",
				frac*100, got, 1-frac)
		}
	}
}
