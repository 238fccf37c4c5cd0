package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Partition assigns every example index to exactly one client.
type Partition [][]int

// TotalExamples returns the number of indices across all clients.
func (p Partition) TotalExamples() int {
	n := 0
	for _, c := range p {
		n += len(c)
	}
	return n
}

// PartitionIID splits n example indices uniformly at random across
// numClients clients (sizes differ by at most one).
func PartitionIID(n, numClients int, rng *rand.Rand) Partition {
	if numClients <= 0 || n < numClients {
		panic(fmt.Sprintf("dataset: cannot split %d examples over %d clients", n, numClients))
	}
	perm := rng.Perm(n)
	out := make(Partition, numClients)
	for i, idx := range perm {
		c := i % numClients
		out[c] = append(out[c], idx)
	}
	return out
}

// PartitionShards implements the McMahan et al. pathological non-IID split:
// examples are sorted by label, divided into numClients*shardsPerClient
// contiguous shards, and each client receives shardsPerClient random shards.
// With shardsPerClient=2 most clients see only about two classes.
func PartitionShards(labels []int, numClients, shardsPerClient int, rng *rand.Rand) Partition {
	n := len(labels)
	numShards := numClients * shardsPerClient
	if numShards > n {
		panic(fmt.Sprintf("dataset: %d shards exceed %d examples", numShards, n))
	}
	bySort := make([]int, n)
	for i := range bySort {
		bySort[i] = i
	}
	sort.SliceStable(bySort, func(a, b int) bool { return labels[bySort[a]] < labels[bySort[b]] })

	shardSize := n / numShards
	shardOrder := rng.Perm(numShards)
	out := make(Partition, numClients)
	for c := 0; c < numClients; c++ {
		for s := 0; s < shardsPerClient; s++ {
			sh := shardOrder[c*shardsPerClient+s]
			lo := sh * shardSize
			hi := lo + shardSize
			if sh == numShards-1 {
				hi = n // last shard absorbs the remainder
			}
			out[c] = append(out[c], bySort[lo:hi]...)
		}
	}
	return out
}

// PartitionDirichlet draws, for every class, a client-allocation vector from
// Dirichlet(alpha) and distributes that class's examples accordingly. Small
// alpha (e.g. 0.1) gives highly skewed non-IID clients; large alpha
// approaches IID. Clients left empty are given one random example so every
// client can participate.
func PartitionDirichlet(labels []int, numClients int, alpha float64, rng *rand.Rand) Partition {
	if alpha <= 0 {
		panic("dataset: Dirichlet alpha must be positive")
	}
	byClass := map[int][]int{}
	for i, l := range labels {
		byClass[l] = append(byClass[l], i)
	}
	out := make(Partition, numClients)
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		w := dirichlet(rng, alpha, numClients)
		// convert weights to cumulative counts
		start := 0
		cum := 0.0
		for cl := 0; cl < numClients; cl++ {
			cum += w[cl]
			end := int(float64(cum*float64(len(idx))) + 0.5)
			if cl == numClients-1 {
				end = len(idx)
			}
			if end > len(idx) {
				end = len(idx)
			}
			if end > start {
				out[cl] = append(out[cl], idx[start:end]...)
			}
			start = end
		}
	}
	// guarantee non-empty clients
	for cl := range out {
		if len(out[cl]) == 0 {
			donor := rng.Intn(numClients)
			for len(out[donor]) < 2 {
				donor = (donor + 1) % numClients
			}
			last := len(out[donor]) - 1
			out[cl] = append(out[cl], out[donor][last])
			out[donor] = out[donor][:last]
		}
	}
	return out
}

// dirichlet samples a probability vector from a symmetric Dirichlet(alpha)
// via normalized Gamma(alpha, 1) draws.
func dirichlet(rng *rand.Rand, alpha float64, k int) []float64 {
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = gammaSample(rng, alpha)
		sum += w[i]
	}
	if sum == 0 {
		for i := range w {
			w[i] = 1.0 / float64(k)
		}
		return w
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// gammaSample draws from Gamma(shape, 1) using Marsaglia-Tsang for
// shape >= 1 and the boost trick for shape < 1.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / (3 * math.Sqrt(d))
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// LabelHistogram counts labels per client; useful for tests and diagnostics.
func LabelHistogram(p Partition, labels []int, numClasses int) [][]int {
	out := make([][]int, len(p))
	for c, idx := range p {
		h := make([]int, numClasses)
		for _, i := range idx {
			h[labels[i]]++
		}
		out[c] = h
	}
	return out
}
