package dataset

import (
	"fmt"
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
