package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	if a.NumDims() != 3 || a.Dim(0) != 2 || a.Dim(1) != 3 || a.Dim(2) != 4 {
		t.Fatalf("bad shape %v", a.Shape())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	a := FromSlice(d, 2, 3)
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", a.At(1, 2))
	}
	a.Set(42, 0, 1)
	if d[1] != 42 {
		t.Fatal("FromSlice must share storage")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if got := a.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := a.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout violated: %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	a.At(0, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Set(8, 3)
	if a.At(1, 1) != 8 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape volume")
		}
	}()
	a.Reshape(3)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	a.AddInPlace(b)
	want := []float32{5, 7, 9}
	for i, w := range want {
		if a.Data()[i] != w {
			t.Fatalf("AddInPlace[%d] = %v, want %v", i, a.Data()[i], w)
		}
	}
	a.Scale(2)
	if a.At(2) != 18 {
		t.Fatalf("Scale: got %v", a.At(2))
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{3, -1, 4, 0}, 4)
	if a.Sum() != 6 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != 1.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if got := a.Norm(); math.Abs(got-math.Sqrt(26)) > 1e-9 {
		t.Fatalf("Norm = %v", got)
	}
}

func TestRandnStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 2.0, 10000)
	mean := a.Mean()
	if math.Abs(mean) > 0.1 {
		t.Fatalf("Randn mean = %v, want ~0", mean)
	}
	varSum := 0.0
	for _, v := range a.Data() {
		varSum += float64(float64(v) * float64(v))
	}
	std := math.Sqrt(varSum / float64(a.Len()))
	if math.Abs(std-2.0) > 0.1 {
		t.Fatalf("Randn std = %v, want ~2", std)
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandUniform(rng, -1, 3, 1000)
	for _, v := range a.Data() {
		if v < -1 || v >= 3 {
			t.Fatalf("RandUniform out of range: %v", v)
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 5, 5)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id)
	if !c.Equal(a, 1e-6) {
		t.Fatal("A*I != A")
	}
	c2 := MatMul(id, a)
	if !c2.Equal(a, 1e-6) {
		t.Fatal("I*A != A")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// naiveMatMul is the reference implementation used to cross-check the
// optimized kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := float32(0)
			for kk := 0; kk < k; kk++ {
				s += float32(a.At(i, kk) * b.At(kk, j))
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.Equal(want, 1e-4) {
			t.Fatalf("trial %d: MatMul mismatch for %dx%dx%d", trial, m, k, n)
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 1, 4, 3) // k x m
	b := Randn(rng, 1, 4, 5) // k x n
	got := New(3, 5)
	MatMulTransAInto(got, a, b)
	// reference: transpose a explicitly
	at := New(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	want := naiveMatMul(at, b)
	if !got.Equal(want, 1e-4) {
		t.Fatal("MatMulTransA mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Randn(rng, 1, 4, 3) // m x k
	b := Randn(rng, 1, 5, 3) // n x k
	got := MatMulTransB(a, b)
	bt := New(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	want := naiveMatMul(a, bt)
	if !got.Equal(want, 1e-4) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatMulIntoAndAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 3, 3)
	b := Randn(rng, 1, 3, 3)
	dst := Full(1, 3, 3)
	MatMulInto(dst, a, b)
	want := naiveMatMul(a, b)
	if !dst.Equal(want, 1e-5) {
		t.Fatal("MatMulInto must overwrite")
	}
	MatMulAccum(dst, a, b)
	want.Scale(2)
	if !dst.Equal(want, 1e-4) {
		t.Fatal("MatMulAccum must accumulate")
	}
}

// Property: MatMul matches the scalar definition on random small shapes.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		ab := MatMul(a, b) // m x n
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := float32(0)
				for kk := 0; kk < k; kk++ {
					s += float32(a.At(i, kk) * b.At(kk, j))
				}
				if math.Abs(float64(ab.At(i, j)-s)) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Fatal("Equal must compare shapes")
	}
	if New(2).Equal(New(2, 1), 1) {
		t.Fatal("Equal must compare rank")
	}
}

func TestZeroFillCopy(t *testing.T) {
	a := Full(3, 4)
	a.Zero()
	if a.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	a = Full(2, 4)
	if a.Sum() != 8 {
		t.Fatal("Full failed")
	}
	b := New(4)
	b.CopyFrom(a)
	if b.Sum() != 8 {
		t.Fatal("CopyFrom failed")
	}
}

func TestStringer(t *testing.T) {
	s := New(2, 2).String()
	if s == "" {
		t.Fatal("String must be non-empty")
	}
}
