package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateImagesShapesAndLabels(t *testing.T) {
	cfg := MNISTLike(8, 5, 3, 42)
	train, test := GenerateImages(cfg)
	if train.Len() != 50 || test.Len() != 30 {
		t.Fatalf("sizes %d / %d", train.Len(), test.Len())
	}
	if got := train.X.Shape(); got[1] != 1 || got[2] != 8 || got[3] != 8 {
		t.Fatalf("train shape %v", got)
	}
	counts := make([]int, 10)
	for _, l := range train.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 5 {
			t.Fatalf("class %d has %d train examples, want 5", c, n)
		}
	}
	if train.NumClasses != 10 {
		t.Fatalf("NumClasses = %d", train.NumClasses)
	}
}

func TestGenerateImagesDeterministic(t *testing.T) {
	a, _ := GenerateImages(MNISTLike(8, 2, 1, 7))
	b, _ := GenerateImages(MNISTLike(8, 2, 1, 7))
	if !a.X.Equal(b.X, 0) {
		t.Fatal("same seed must generate identical data")
	}
	c, _ := GenerateImages(MNISTLike(8, 2, 1, 8))
	if a.X.Equal(c.X, 1e-9) {
		t.Fatal("different seeds must differ")
	}
}

func TestCIFAR10LikeHasThreeChannels(t *testing.T) {
	train, _ := GenerateImages(CIFAR10Like(8, 1, 1, 1))
	if train.X.Dim(1) != 3 {
		t.Fatalf("channels = %d", train.X.Dim(1))
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Same-class samples must be closer (on average) than cross-class ones;
	// otherwise no learner could do anything with the data.
	train, _ := GenerateImages(MNISTLike(12, 10, 1, 3))
	sl := train.SampleLen()
	dist := func(i, j int) float64 {
		s := 0.0
		for k := 0; k < sl; k++ {
			d := float64(train.X.Data()[i*sl+k] - train.X.Data()[j*sl+k])
			s += float64(d * d)
		}
		return s
	}
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < train.Len(); i += 3 {
		for j := i + 1; j < train.Len(); j += 7 {
			if train.Labels[i] == train.Labels[j] {
				intra += dist(i, j)
				nIntra++
			} else {
				inter += dist(i, j)
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 {
		t.Skip("sampling produced no pairs")
	}
	if intra/float64(nIntra) >= inter/float64(nInter) {
		t.Fatalf("intra-class distance %.2f >= inter-class %.2f: classes not separable",
			intra/float64(nIntra), inter/float64(nInter))
	}
}

func TestGatherAndSubset(t *testing.T) {
	train, _ := GenerateImages(MNISTLike(8, 2, 1, 5))
	x, labels := train.Gather([]int{3, 0})
	if x.Dim(0) != 2 || labels[0] != train.Labels[3] || labels[1] != train.Labels[0] {
		t.Fatal("Gather mismatch")
	}
	sub := train.Subset([]int{1, 2, 3})
	if sub.Len() != 3 || sub.NumClasses != 10 {
		t.Fatal("Subset mismatch")
	}
}

func TestGatherOutOfRangePanics(t *testing.T) {
	train, _ := GenerateImages(MNISTLike(8, 1, 1, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	train.Gather([]int{999})
}

func TestBatches(t *testing.T) {
	b := Batches(10, 4, nil)
	if len(b) != 3 || len(b[0]) != 4 || len(b[2]) != 2 {
		t.Fatalf("Batches = %v", b)
	}
	perm := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	b2 := Batches(10, 5, perm)
	if b2[0][0] != 9 || b2[1][4] != 0 {
		t.Fatalf("Batches with perm = %v", b2)
	}
}

func TestBatchesBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Batches(10, 0, nil)
}

func TestPartitionIIDCoversAllOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := PartitionIID(103, 10, rng)
	seen := make([]bool, 103)
	for _, client := range p {
		for _, i := range client {
			if seen[i] {
				t.Fatalf("index %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d unassigned", i)
		}
	}
	for _, client := range p {
		if len(client) < 10 || len(client) > 11 {
			t.Fatalf("unbalanced client size %d", len(client))
		}
	}
}

func TestPartitionIIDTooFewExamplesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PartitionIID(3, 10, rand.New(rand.NewSource(1)))
}

func TestPartitionShardsIsLabelSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	labels := make([]int, 400)
	for i := range labels {
		labels[i] = i % 10
	}
	p := PartitionShards(labels, 20, 2, rng)
	if p.TotalExamples() != 400 {
		t.Fatalf("shards lost examples: %d", p.TotalExamples())
	}
	hist := LabelHistogram(p, labels, 10)
	// Each client got 2 shards of 10 sorted examples -> at most 4 distinct
	// labels (2 per shard boundary), typically 2.
	for c, h := range hist {
		distinct := 0
		for _, n := range h {
			if n > 0 {
				distinct++
			}
		}
		if distinct > 4 {
			t.Fatalf("client %d sees %d classes; shard partition should be skewed", c, distinct)
		}
	}
}

func TestPartitionDirichletSkewVsAlpha(t *testing.T) {
	labels := make([]int, 1000)
	for i := range labels {
		labels[i] = i % 10
	}
	skew := func(alpha float64) float64 {
		rng := rand.New(rand.NewSource(3))
		p := PartitionDirichlet(labels, 10, alpha, rng)
		hist := LabelHistogram(p, labels, 10)
		// measure mean per-client max-class share
		total := 0.0
		for _, h := range hist {
			sum, max := 0, 0
			for _, n := range h {
				sum += n
				if n > max {
					max = n
				}
			}
			if sum > 0 {
				total += float64(max) / float64(sum)
			}
		}
		return total / float64(len(hist))
	}
	lowAlpha, highAlpha := skew(0.1), skew(100)
	if lowAlpha <= highAlpha {
		t.Fatalf("alpha=0.1 skew %.3f should exceed alpha=100 skew %.3f", lowAlpha, highAlpha)
	}
	if highAlpha > 0.2 {
		t.Fatalf("alpha=100 should be near-IID (max share ~0.1), got %.3f", highAlpha)
	}
}

func TestPartitionDirichletCoversAllOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := make([]int, 200)
		for i := range labels {
			labels[i] = rng.Intn(5)
		}
		p := PartitionDirichlet(labels, 8, 0.5, rng)
		seen := make([]bool, 200)
		count := 0
		for _, cl := range p {
			if len(cl) == 0 {
				return false // empty clients not allowed
			}
			for _, i := range cl {
				if seen[i] {
					return false
				}
				seen[i] = true
				count++
			}
		}
		return count == 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDirichletBadAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PartitionDirichlet([]int{0, 1}, 2, 0, rand.New(rand.NewSource(1)))
}

func TestGammaSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range []float64{0.3, 1, 2.5} {
		n := 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += gammaSample(rng, shape)
		}
		mean := sum / float64(n)
		if math.Abs(mean-shape) > float64(0.1*shape)+0.05 {
			t.Fatalf("Gamma(%v) sample mean %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestSmoothFieldIsSmooth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	size := 16
	f := smoothField(rng, 1, size)
	// neighboring pixels must correlate more than pixels far apart
	var near, far float64
	for y := 0; y < size; y++ {
		for x := 0; x+1 < size; x++ {
			near += math.Abs(float64(f[y*size+x] - f[y*size+x+1]))
		}
	}
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			far += math.Abs(float64(f[y*size+x] - f[((y+8)%size)*size+(x+8)%size]))
		}
	}
	near /= float64(size * (size - 1))
	far /= float64(size * size)
	if near >= far {
		t.Fatalf("field not smooth: near diff %.3f >= far diff %.3f", near, far)
	}
}
