package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Naive reference kernels: the pre-blocking triple loops, with the same
// explicit float32(a*b) rounding as the production kernels. Every output
// element is one ascending-k accumulator chain, so the blocked kernels must
// match these bit for bit.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += float32(a.data[i*k+kk] * b.data[kk*n+j])
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += float32(a.data[kk*m+i] * b.data[kk*n+j])
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += float32(a.data[i*k+kk] * b.data[j*k+kk])
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

func withWorkers(t *testing.T, n int) {
	t.Helper()
	old := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(old) })
}

func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// testShapes deliberately includes degenerate sizes and sizes that are not
// multiples of the 4x16 tile, so microkernel, column-tail, and row-tail paths
// are all exercised; tileEdgeShapes adds every m in {1, 3, 4, 5} against
// every n around one strip and one panel, and two shapes past the parallel
// cutoff with more panels than some worker counts and fewer than others,
// so both the panel split and the row split run.
var testShapes = append([][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 2}, {4, 4, 4}, {5, 9, 6}, {2, 3, 130},
	{17, 23, 31}, {33, 1, 65}, {1, 64, 9}, {70, 3, 70}, {64, 64, 64}, {61, 67, 59},
	{9, 24, 1100}, {70, 20, 300},
}, tileEdgeShapes()...)

func tileEdgeShapes() [][3]int {
	var out [][3]int
	for _, m := range []int{1, 3, 4, 5} {
		for _, n := range []int{15, 16, 17, 255, 256, 257} {
			out = append(out, [3]int{m, 29, n})
		}
	}
	return out
}

func TestBlockedKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range testShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		at := Randn(rng, 1, k, m)  // for TransA: k x m
		bt := Randn(rng, 1, n, k)  // for TransB: n x k
		acc := Randn(rng, 1, m, n) // accumulation seed
		wantMM := refMatMul(a, b)
		wantTA := refMatMulTransA(at, b)
		wantTB := refMatMulTransB(a, bt)
		// reference accum: chain seeded from existing dst, then ascending k
		wantAcc := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := acc.data[i*n+j]
				for kk := 0; kk < k; kk++ {
					s += float32(a.data[i*k+kk] * b.data[kk*n+j])
				}
				wantAcc.data[i*n+j] = s
			}
		}
		for _, w := range []int{1, 2, 3, 8} {
			func() {
				old := SetWorkers(w)
				defer SetWorkers(old)
				bitsEqual(t, "MatMul", MatMul(a, b).data, wantMM.data)
				dst := New(m, n)
				MatMulInto(dst, a, b)
				bitsEqual(t, "MatMulInto", dst.data, wantMM.data)
				dst.CopyFrom(acc)
				MatMulAccum(dst, a, b)
				bitsEqual(t, "MatMulAccum", dst.data, wantAcc.data)
				MatMulTransAInto(dst, at, b)
				bitsEqual(t, "MatMulTransAInto", dst.data, wantTA.data)
				bitsEqual(t, "MatMulTransB", MatMulTransB(a, bt).data, wantTB.data)
			}()
		}
	}
}

func TestTransAccumVariantsMatchSeparateAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, k, n := 13, 21, 17
	at := Randn(rng, 1, k, m)
	b := Randn(rng, 1, k, n)
	seed := Randn(rng, 1, m, n)

	for _, w := range []int{1, 3, 8} {
		old := SetWorkers(w)
		ta := seed.Clone()
		MatMulTransAAccum(ta, at, b)
		// chain seeded from existing dst, then ascending k
		want := seed.Clone()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := seed.data[i*n+j]
				for kk := 0; kk < k; kk++ {
					s += float32(at.data[kk*m+i] * b.data[kk*n+j])
				}
				want.data[i*n+j] = s
			}
		}
		bitsEqual(t, "MatMulTransAAccum", ta.data, want.data)
		SetWorkers(old)
	}
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 16} {
		withWorkers(t, w)
		for _, n := range []int{0, 1, 2, 7, 16, 101} {
			hits := make([]int32, n)
			var mu sync.Mutex
			ParallelFor(n, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

// ParallelFor joins every goroutine it spawns before returning, including
// when a nested call finds the pool saturated and runs its chunks inline.
// A worker exits just after its wg.Done, so the count is polled briefly;
// goroutines of earlier tests may still be winding down, so it may fall
// but must not rise.
func TestParallelForLeavesNoGoroutines(t *testing.T) {
	withWorkers(t, 4)
	before := runtime.NumGoroutine()
	var visits atomic.Int64
	ParallelFor(8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(16, func(lo, hi int) { visits.Add(int64(hi - lo)) })
		}
	})
	if got := visits.Load(); got != 8*16 {
		t.Fatalf("nested ParallelFor visited %d indices, want %d", got, 8*16)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("ParallelFor left %d goroutines behind", n-before)
	}
}

func TestSetWorkersClampsAndReturnsPrevious(t *testing.T) {
	old := SetWorkers(3)
	defer SetWorkers(old)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	if prev := SetWorkers(0); prev != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", prev)
	}
	if got := Workers(); got != 1 {
		t.Fatalf("Workers() after clamp = %d, want 1", got)
	}
}

// TestWorkerPoolConcurrentHammer exercises the shared pool from many
// goroutines at once (as concurrent layers and federated clients do),
// including concurrent SetWorkers churn. Run with -race.
func TestWorkerPoolConcurrentHammer(t *testing.T) {
	withWorkers(t, 4)
	rng := rand.New(rand.NewSource(10))
	a := Randn(rng, 1, 37, 29)
	b := Randn(rng, 1, 29, 41)
	at := Randn(rng, 1, 29, 37)
	bt := Randn(rng, 1, 41, 29)
	want := refMatMul(a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := New(37, 41)
			for it := 0; it < 50; it++ {
				switch it % 3 {
				case 0:
					MatMulInto(dst, a, b)
					bitsEqualErr := false
					for i := range dst.data {
						if math.Float32bits(dst.data[i]) != math.Float32bits(want.data[i]) {
							bitsEqualErr = true
						}
					}
					if bitsEqualErr {
						t.Errorf("goroutine %d: concurrent MatMulInto diverged", g)
						return
					}
				case 1:
					MatMulTransAInto(New(37, 41), at, b)
				case 2:
					MatMulTransB(a, bt)
				}
			}
		}(g)
	}
	// churn the pool size while kernels run
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			SetWorkers(1 + i%4)
		}
	}()
	wg.Wait()
}

func TestIntoKernelsDoNotAllocateSerial(t *testing.T) {
	withWorkers(t, 1)
	rng := rand.New(rand.NewSource(11))
	a := Randn(rng, 1, 64, 48)
	b := Randn(rng, 1, 48, 56)
	at := Randn(rng, 1, 48, 64)
	dst := New(64, 56)
	cases := map[string]func(){
		"MatMulInto":        func() { MatMulInto(dst, a, b) },
		"MatMulAccum":       func() { MatMulAccum(dst, a, b) },
		"MatMulTransAInto":  func() { MatMulTransAInto(dst, at, b) },
		"MaxPool2DInto":     maxPoolIntoCase(rng),
		"GlobalAvgPoolInto": gapIntoCase(rng),
	}
	// The GEMM kernels recycle panel scratch through a sync.Pool, and
	// Pool.Put drops items at random under the race detector.
	pooled := map[string]bool{"MatMulInto": true, "MatMulAccum": true, "MatMulTransAInto": true}
	for name, fn := range cases {
		if raceEnabled && pooled[name] {
			continue
		}
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func maxPoolIntoCase(rng *rand.Rand) func() {
	img := Randn(rng, 1, 4*8*8).data
	out := make([]float32, 4*4*4)
	am := make([]int32, len(out))
	return func() { MaxPool2DInto(img, 4, 8, 8, 2, 2, out, am) }
}

func gapIntoCase(rng *rand.Rand) func() {
	img := Randn(rng, 1, 4*8*8).data
	out := make([]float32, 4)
	return func() { GlobalAvgPoolInto(img, 4, 8, 8, out) }
}
