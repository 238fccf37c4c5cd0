package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// SplitStratified partitions a dataset into train and test subsets with the
// given test fraction, preserving per-class proportions (each class
// contributes ~frac of its examples to the test split, at least one when it
// has two or more).
func SplitStratified(d *Dataset, testFrac float64, rng *rand.Rand) (train, test *Dataset) {
	if testFrac <= 0 || testFrac >= 1 {
		panic(fmt.Sprintf("dataset: test fraction %g must be in (0,1)", testFrac))
	}
	byClass := map[int][]int{}
	for i, l := range d.Labels {
		byClass[l] = append(byClass[l], i)
	}
	var trainIdx, testIdx []int
	// iterate classes in order for determinism
	for c := 0; c < d.NumClasses; c++ {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		nTest := int(float64(testFrac*float64(len(idx))) + 0.5)
		if nTest == 0 && len(idx) >= 2 {
			nTest = 1
		}
		if nTest >= len(idx) && len(idx) > 0 {
			nTest = len(idx) - 1
		}
		testIdx = append(testIdx, idx[:nTest]...)
		trainIdx = append(trainIdx, idx[nTest:]...)
	}
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// Standardizer holds per-feature mean and standard deviation fitted on a
// training set, to be applied to any split — the usual leak-free
// normalization workflow.
type Standardizer struct {
	Mean, Std []float32
}

// FitStandardizer computes per-feature statistics over d.
func FitStandardizer(d *Dataset) *Standardizer {
	sl := d.SampleLen()
	n := d.Len()
	if n == 0 {
		panic("dataset: cannot fit a standardizer on an empty dataset")
	}
	mean := make([]float64, sl)
	for i := 0; i < n; i++ {
		for j, v := range d.X.Data()[i*sl : (i+1)*sl] {
			mean[j] += float64(v)
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	variance := make([]float64, sl)
	for i := 0; i < n; i++ {
		for j, v := range d.X.Data()[i*sl : (i+1)*sl] {
			diff := float64(v) - mean[j]
			variance[j] += float64(diff * diff)
		}
	}
	s := &Standardizer{Mean: make([]float32, sl), Std: make([]float32, sl)}
	for j := range variance {
		std := math.Sqrt(variance[j] / float64(n))
		if std < 1e-8 {
			std = 1 // constant feature: leave it centered but unscaled
		}
		s.Mean[j] = float32(mean[j])
		s.Std[j] = float32(std)
	}
	return s
}

// Apply standardizes d in place: x := (x - mean) / std per feature.
func (s *Standardizer) Apply(d *Dataset) {
	sl := d.SampleLen()
	if sl != len(s.Mean) {
		panic(fmt.Sprintf("dataset: standardizer fitted on %d features, dataset has %d", len(s.Mean), sl))
	}
	for i := 0; i < d.Len(); i++ {
		row := d.X.Data()[i*sl : (i+1)*sl]
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
}
