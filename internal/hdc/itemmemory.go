package hdc

import (
	"fmt"
	"math/rand"
)

// This file implements the classical HDC encoders of Kanerva's framework —
// item memories, level (thermometer) memories, record-based encoding, and
// permutation-based sequence encoding. FHDnn itself uses the random
// projection encoder of encoder.go, but the paper builds on the general
// HDC toolbox (binding, bundling, permutation), and downstream users of an
// HD learning library expect the symbolic encoders too.

// ItemMemory maps discrete symbols to quasi-orthogonal random bipolar
// hypervectors, generated deterministically from a seed so all parties
// share the same memory without exchanging it.
type ItemMemory struct {
	D    int
	seed int64
	vecs map[int][]float32
}

// NewItemMemory creates an empty item memory of dimension d.
func NewItemMemory(seed int64, d int) *ItemMemory {
	if d <= 0 {
		panic(fmt.Sprintf("hdc: invalid item memory dimension %d", d))
	}
	return &ItemMemory{D: d, seed: seed, vecs: make(map[int][]float32)}
}

// Get returns the hypervector for symbol id, generating it on first use.
// The vector depends only on (seed, id, d), never on access order.
func (im *ItemMemory) Get(id int) []float32 {
	if v, ok := im.vecs[id]; ok {
		return v
	}
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	rng := rand.New(rand.NewSource(im.seed ^ (int64(id)+1)*mix))
	v := RandomBipolar(rng, im.D)
	im.vecs[id] = v
	return v
}

// Len returns the number of materialized items.
func (im *ItemMemory) Len() int { return len(im.vecs) }

// LevelMemory quantizes a continuous range [Lo, Hi] into L hypervectors
// whose pairwise similarity decreases linearly with level distance: each
// consecutive level flips d/(2(L-1)) fresh positions of its predecessor, so
// level 0 and level L-1 are quasi-orthogonal while neighbours are nearly
// identical. This is the standard thermometer encoding of continuous
// features in HDC.
type LevelMemory struct {
	D      int
	Levels int
	Lo, Hi float64
	vecs   [][]float32
}

// NewLevelMemory builds the L correlated level vectors.
func NewLevelMemory(seed int64, d, levels int, lo, hi float64) *LevelMemory {
	if levels < 2 {
		panic("hdc: level memory needs at least 2 levels")
	}
	if hi <= lo {
		panic("hdc: level memory needs hi > lo")
	}
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float32, levels)
	vecs[0] = RandomBipolar(rng, d)
	// Flip disjoint position blocks so similarity decays linearly: a random
	// permutation of all positions is consumed in equal chunks.
	perm := rng.Perm(d)
	flipPerStep := d / (2 * (levels - 1))
	pos := 0
	for l := 1; l < levels; l++ {
		v := make([]float32, d)
		copy(v, vecs[l-1])
		for i := 0; i < flipPerStep && pos < d; i++ {
			v[perm[pos]] = -v[perm[pos]]
			pos++
		}
		vecs[l] = v
	}
	return &LevelMemory{D: d, Levels: levels, Lo: lo, Hi: hi, vecs: vecs}
}

// Level returns the hypervector for value x, clamped to [Lo, Hi].
func (lm *LevelMemory) Level(x float64) []float32 {
	return lm.vecs[lm.LevelIndex(x)]
}

// LevelIndex returns the quantized level of x.
func (lm *LevelMemory) LevelIndex(x float64) int {
	if x <= lm.Lo {
		return 0
	}
	if x >= lm.Hi {
		return lm.Levels - 1
	}
	idx := int(float64(lm.Levels) * (x - lm.Lo) / (lm.Hi - lm.Lo))
	if idx >= lm.Levels {
		idx = lm.Levels - 1
	}
	return idx
}

// RecordEncoder encodes fixed-length feature vectors by binding each
// feature's identity hypervector with its quantized value hypervector and
// bundling across features:
//
//	h = sign( sum_i  ID_i (x) Level(x_i) )
//
// the record-based encoding of Imani et al.
type RecordEncoder struct {
	Items    *ItemMemory
	Levels   *LevelMemory
	Binarize bool
}

// NewRecordEncoder wires an item memory and level memory of equal
// dimension.
func NewRecordEncoder(seed int64, d, levels int, lo, hi float64) *RecordEncoder {
	return &RecordEncoder{
		Items:    NewItemMemory(seed, d),
		Levels:   NewLevelMemory(seed+1, d, levels, lo, hi),
		Binarize: true,
	}
}

// Encode maps a feature vector to a hypervector.
func (re *RecordEncoder) Encode(x []float32) []float32 {
	d := re.Items.D
	acc := make([]float32, d)
	for i, v := range x {
		id := re.Items.Get(i)
		lvl := re.Levels.Level(float64(v))
		for j := 0; j < d; j++ {
			acc[j] += float32(id[j] * lvl[j])
		}
	}
	if re.Binarize {
		Sign(acc)
	}
	return acc
}

// SequenceEncoder encodes symbol sequences with permutation n-grams:
// an n-gram (s_1 ... s_n) becomes rho^(n-1)(V_{s_1}) (x) ... (x) V_{s_n},
// and all n-grams of the sequence are bundled. Order matters: permuting a
// hypervector decorrelates it, so "ab" and "ba" map to quasi-orthogonal
// codes.
type SequenceEncoder struct {
	Items    *ItemMemory
	N        int // n-gram size
	Binarize bool
}

// NewSequenceEncoder builds an n-gram encoder of dimension d.
func NewSequenceEncoder(seed int64, d, n int) *SequenceEncoder {
	if n < 1 {
		panic("hdc: n-gram size must be >= 1")
	}
	return &SequenceEncoder{Items: NewItemMemory(seed, d), N: n, Binarize: true}
}

// Encode maps a symbol sequence to a hypervector. Sequences shorter than
// the n-gram size yield the zero vector.
func (se *SequenceEncoder) Encode(seq []int) []float32 {
	d := se.Items.D
	acc := make([]float32, d)
	for start := 0; start+se.N <= len(seq); start++ {
		gram := make([]float32, d)
		for j := range gram {
			gram[j] = 1
		}
		for k := 0; k < se.N; k++ {
			v := Permute(se.Items.Get(seq[start+k]), se.N-1-k)
			for j := 0; j < d; j++ {
				gram[j] *= v[j]
			}
		}
		Bundle(acc, gram)
	}
	if se.Binarize {
		Sign(acc)
	}
	return acc
}
