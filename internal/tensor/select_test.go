package tensor

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// checkSelect runs Select for rank k on a copy of keys and compares it
// with a full sort.
func checkSelect(t *testing.T, name string, keys []uint32, k int) {
	t.Helper()
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	wantBelow, wantAt := sorted[k], sorted[k]
	if k > 0 {
		wantBelow = sorted[k-1]
	}
	work := slices.Clone(keys)
	below, at := Select(work, make([]uint32, len(keys)), k)
	if below != wantBelow || at != wantAt {
		t.Fatalf("%s: n=%d k=%d: Select = (%d, %d), want (%d, %d)", name, len(keys), k, below, at, wantBelow, wantAt)
	}
}

// median3Killer returns a permutation of 0..n-1 on which every partition
// pass of Select for rank n-1 discards at most three keys: each pass meets
// three fresh probes that are the smallest keys left, so Select runs out
// of its pass budget and takes the sort fallback.
func median3Killer(n int) []uint32 {
	const gas = ^uint32(0) // not yet assigned: larger than every assigned key
	val := make([]uint32, n)
	seg := make([]int, n) // original positions, in the current segment's order
	for i := range seg {
		val[i], seg[i] = gas, i
	}
	next := uint32(0)
	for len(seg) > selectCutoff {
		for _, i := range []int{seg[0], seg[len(seg)/2], seg[len(seg)-1]} {
			if val[i] == gas {
				val[i], next = next, next+1
			}
		}
		p := median3(val[seg[0]], val[seg[len(seg)/2]], val[seg[len(seg)-1]])
		// The keys above p land at the right end in reverse order.
		var right []int
		for j := len(seg) - 1; j >= 0; j-- {
			if val[seg[j]] > p {
				right = append(right, seg[j])
			}
		}
		seg = right
	}
	for _, i := range seg {
		if val[i] == gas {
			val[i], next = next, next+1
		}
	}
	return val
}

func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := map[string]func(n int) []uint32{
		"random": func(n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = rng.Uint32()
			}
			return s
		},
		"ties": func(n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = uint32(rng.Intn(4))
			}
			return s
		},
		"extremes": func(n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = []uint32{0, 1, 1 << 31, ^uint32(0) - 1, ^uint32(0)}[rng.Intn(5)]
			}
			return s
		},
		"ascending": func(n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = uint32(i)
			}
			return s
		},
		"descending": func(n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = uint32(n - i)
			}
			return s
		},
		"organ": func(n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = uint32(min(i, n-1-i))
			}
			return s
		},
		"equal":  func(n int) []uint32 { return make([]uint32, n) },
		"killer": median3Killer,
	}
	for name, g := range gen {
		for _, n := range []int{1, 2, 3, 15, 16, 17, 18, 33, 64, 197, 1000} {
			keys := g(n)
			for k := 0; k < n; k++ {
				checkSelect(t, name, keys, k)
			}
		}
	}
}

// The killer input defeats every partition pass for its top rank; Select
// must still answer, through its sort fallback.
func TestSelectSortFallback(t *testing.T) {
	for _, n := range []int{64, 197, 5000} {
		keys := median3Killer(n)
		below, at := Select(keys, make([]uint32, n), n-1)
		if below != uint32(n-2) || at != uint32(n-1) {
			t.Fatalf("n=%d: Select = (%d, %d), want (%d, %d)", n, below, at, n-2, n-1)
		}
	}
}

func TestSelectRejectsBadArguments(t *testing.T) {
	for _, c := range []struct{ n, scratch, k int }{{0, 0, 0}, {4, 4, -1}, {4, 4, 4}, {4, 3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(n=%d, scratch=%d, k=%d) did not panic", c.n, c.scratch, c.k)
				}
			}()
			Select(make([]uint32, c.n), make([]uint32, c.scratch), c.k)
		}()
	}
}

func FuzzSelect(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint16(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0}, uint16(17))
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		if len(data) == 0 {
			return
		}
		// One byte a key keeps ties common; the high bits spread the
		// keys over the whole range.
		keys := make([]uint32, len(data))
		for i, b := range data {
			keys[i] = uint32(b)<<24 | uint32(b&3)
		}
		checkSelect(t, "fuzz", keys, int(k)%len(keys))
	})
}

// BenchmarkSelect selects the median of n random keys per op; the copy
// back into the clobbered input is part of each op.
func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{197, 20480} {
		rng := rand.New(rand.NewSource(1))
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		work, scratch := make([]uint32, n), make([]uint32, n)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, keys)
				Select(work, scratch, n/2)
			}
		})
	}
}
