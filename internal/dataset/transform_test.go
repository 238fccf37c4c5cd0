package dataset

import (
	"math"
	"math/rand"
	"testing"
)

func TestSplitStratifiedProportions(t *testing.T) {
	d, _ := GenerateImages(MNISTLike(8, 20, 1, 31))
	rng := rand.New(rand.NewSource(1))
	train, test := SplitStratified(d, 0.25, rng)
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("split lost examples: %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	counts := make([]int, 10)
	for _, l := range test.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 5 { // 25% of 20
			t.Fatalf("class %d has %d test examples, want 5", c, n)
		}
	}
}

func TestSplitStratifiedNoOverlap(t *testing.T) {
	d := GenerateVectors(VectorConfig{
		Name: "v", Classes: 3, Features: 2, PerClass: 8, ClassStd: 1, SampleStd: 0.1, Seed: 2})
	// tag each example uniquely so overlap is detectable after the copy
	for i := 0; i < d.Len(); i++ {
		d.X.Data()[i*2] = float32(i)
	}
	train, test := SplitStratified(d, 0.3, rand.New(rand.NewSource(3)))
	seen := map[float32]bool{}
	for i := 0; i < train.Len(); i++ {
		seen[train.X.At(i, 0)] = true
	}
	for i := 0; i < test.Len(); i++ {
		if seen[test.X.At(i, 0)] {
			t.Fatal("train and test overlap")
		}
	}
}

func TestSplitStratifiedValidation(t *testing.T) {
	d := GenerateVectors(VectorConfig{
		Name: "v", Classes: 2, Features: 2, PerClass: 4, ClassStd: 1, SampleStd: 0.1, Seed: 4})
	for _, frac := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("frac %v should panic", frac)
				}
			}()
			SplitStratified(d, frac, rand.New(rand.NewSource(1)))
		}()
	}
}

func TestStandardizerMakesZeroMeanUnitStd(t *testing.T) {
	d := GenerateVectors(VectorConfig{
		Name: "v", Classes: 3, Features: 5, PerClass: 50, ClassStd: 3, SampleStd: 1, Seed: 5})
	s := FitStandardizer(d)
	s.Apply(d)
	sl := d.SampleLen()
	for j := 0; j < sl; j++ {
		var mean, sq float64
		for i := 0; i < d.Len(); i++ {
			v := float64(d.X.At(i, j))
			mean += v
			sq += float64(v * v)
		}
		mean /= float64(d.Len())
		std := math.Sqrt(sq/float64(d.Len()) - float64(mean*mean))
		if math.Abs(mean) > 1e-4 || math.Abs(std-1) > 1e-3 {
			t.Fatalf("feature %d: mean %v std %v after standardizing", j, mean, std)
		}
	}
}

func TestStandardizerConstantFeature(t *testing.T) {
	d := GenerateVectors(VectorConfig{
		Name: "v", Classes: 2, Features: 2, PerClass: 10, ClassStd: 1, SampleStd: 0.5, Seed: 6})
	for i := 0; i < d.Len(); i++ {
		d.X.Set(7, i, 1) // constant second feature
	}
	s := FitStandardizer(d)
	s.Apply(d)
	for i := 0; i < d.Len(); i++ {
		if d.X.At(i, 1) != 0 {
			t.Fatalf("constant feature should center to 0, got %v", d.X.At(i, 1))
		}
	}
}

func TestStandardizerDimensionMismatch(t *testing.T) {
	a := GenerateVectors(VectorConfig{
		Name: "a", Classes: 2, Features: 3, PerClass: 4, ClassStd: 1, SampleStd: 1, Seed: 7})
	b := GenerateVectors(VectorConfig{
		Name: "b", Classes: 2, Features: 4, PerClass: 4, ClassStd: 1, SampleStd: 1, Seed: 8})
	s := FitStandardizer(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Apply(b)
}
