package hdc

import (
	"fmt"
	"math"
)

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hdc: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += float64(float64(v) * float64(b[i]))
	}
	return s
}

// Norm returns the L2 norm of v.
func Norm(v []float32) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(float64(x) * float64(x))
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b, or 0 if either is a zero
// vector.
func Cosine(a, b []float32) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Bundle adds b into a elementwise (the HDC superposition operator).
func Bundle(a, b []float32) {
	if len(a) != len(b) {
		panic("hdc: Bundle length mismatch")
	}
	for i, v := range b {
		a[i] += v
	}
}

// HammingDistance counts positions where bipolar vectors differ.
func HammingDistance(a, b []float32) int {
	if len(a) != len(b) {
		panic("hdc: HammingDistance length mismatch")
	}
	d := 0
	for i := range a {
		if (a[i] >= 0) != (b[i] >= 0) {
			d++
		}
	}
	return d
}

// RandomBipolar returns a uniformly random +-1 hypervector of length d.
func RandomBipolar(rng interface{ Intn(int) int }, d int) []float32 {
	v := make([]float32, d)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
	return v
}
