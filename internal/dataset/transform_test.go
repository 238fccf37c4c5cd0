package dataset

import (
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
