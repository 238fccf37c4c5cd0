package fedcore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fhdnn/internal/tensor"
)

// medianOracle and trimmedMeanOracle commit by a float64 sort of each
// coordinate: the references the robust commits must match bit for bit
// wherever no -0 meets a +0, NaN payloads aside.
func medianOracle(rows [][]float32, global []float32) {
	n := len(rows)
	if n == 0 {
		return
	}
	col := make([]float64, n)
	for j := range global {
		for i, row := range rows {
			col[i] = float64(row[j])
		}
		sort.Float64s(col)
		if n%2 == 1 {
			global[j] = float32(col[n/2])
		} else {
			global[j] = float32((col[n/2-1] + col[n/2]) / 2)
		}
	}
}

func trimmedMeanOracle(frac float64, rows [][]float32, global []float32) {
	n := len(rows)
	if n == 0 {
		return
	}
	k := (&TrimmedMean{Frac: frac}).Trim(n)
	col := make([]float64, n)
	inv := 1 / float64(n-2*k)
	for j := range global {
		for i, row := range rows {
			col[i] = float64(row[j])
		}
		sort.Float64s(col)
		var sum float64
		for _, v := range col[k : n-k] {
			sum += v
		}
		global[j] = float32(sum * inv)
	}
}

// sameBits reports whether a and b are bit-identical, counting any two
// NaNs as equal.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// robustRows draws n rows of d values of one kind. No kind draws -0.
func robustRows(rng *rand.Rand, kind string, n, d int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		row := make([]float32, d)
		for j := range row {
			g := float32(rng.NormFloat64())
			switch kind {
			case "gaussian":
				row[j] = g
			case "ties":
				row[j] = float32(rng.Intn(5) - 2)
			case "inf":
				row[j] = []float32{g, g, float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(4)]
			case "subnormal":
				m := rng.Uint32()&0x007fffff | 1 // a nonzero mantissa: never a zero
				row[j] = math.Float32frombits(m | uint32(rng.Intn(2))<<31)
			case "max":
				row[j] = []float32{g, math.MaxFloat32, -math.MaxFloat32}[rng.Intn(3)]
			case "fleet":
				// One row in four is 90 % (positive) zeros, as a
				// sparsified upload decodes.
				if i%4 == 0 && rng.Intn(10) != 0 {
					g = 0
				}
				row[j] = g
			case "nan":
				if rng.Intn(8) == 0 {
					g = math.Float32frombits(0x7fc00000 | rng.Uint32()&0x803fffff)
				}
				row[j] = g
			}
		}
		rows[i] = row
	}
	return rows
}

// commitRows adds rows to a and commits into a fresh global of length d.
func commitRows(a Aggregator, rows [][]float32, d int) []float32 {
	for _, row := range rows {
		a.Add(Update{Params: row, Samples: 1})
	}
	g := make([]float32, d)
	a.Commit(g)
	a.Reset()
	return g
}

// checkAgainstOracles commits rows through Median and TrimmedMean at
// tensor workers 1, 2, 3 and 8 and compares every coordinate with the
// sort oracles.
func checkAgainstOracles(t *testing.T, name string, rows [][]float32, d int, frac float64) {
	t.Helper()
	wantMed := make([]float32, d)
	medianOracle(rows, wantMed)
	wantTrim := make([]float32, d)
	trimmedMeanOracle(frac, rows, wantTrim)
	defer tensor.SetWorkers(tensor.Workers())
	for _, w := range []int{1, 2, 3, 8} {
		tensor.SetWorkers(w)
		for _, c := range []struct {
			agg  Aggregator
			want []float32
		}{{&Median{}, wantMed}, {&TrimmedMean{Frac: frac}, wantTrim}} {
			got := commitRows(c.agg, rows, d)
			for j := range got {
				if !sameBits(got[j], c.want[j]) {
					t.Fatalf("%s: %s, %d workers: coordinate %d = %v (%#08x), sort oracle %v (%#08x)",
						name, AggregatorName(c.agg), w, j, got[j], math.Float32bits(got[j]),
						c.want[j], math.Float32bits(c.want[j]))
				}
			}
		}
	}
}

func TestRobustCommitMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []string{"gaussian", "ties", "inf", "subnormal", "max", "fleet", "nan"}
	for _, n := range []int{1, 2, 3, 4, 15, 16, 17, 196, 197} {
		for _, d := range []int{1, 15, 16, 17, 20480} {
			for _, kind := range kinds {
				// The oracle sorts every column: at the largest size
				// run only the fleet-shaped rows, to keep the test short.
				if n >= 196 && d == 20480 && kind != "fleet" {
					continue
				}
				name := fmt.Sprintf("n=%d d=%d %s", n, d, kind)
				checkAgainstOracles(t, name, robustRows(rng, kind, n, d), d, 0.2)
			}
		}
	}
}

func FuzzRobustCommit(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff}, uint8(2), uint8(25))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0x80, 0x7f, 9, 9, 9, 9, 0, 0, 0x40, 0x40}, uint8(3), uint8(40))
	// 10 rows of 17 columns: one whole block for the lane kernel, with an
	// even n for its rank n/2-1 pass, and a partial block after it.
	f.Add(bytes.Repeat([]byte{0, 0, 0x80, 0x3f, 0, 0, 0x20, 0xc0, 1, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x7f, 0x10, 0, 0, 0x80}, 34), uint8(9), uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, rowsIn, pct uint8) {
		n := 1 + int(rowsIn)%32
		d := len(data) / 4 / n
		if d == 0 {
			return
		}
		rows := make([][]float32, n)
		for i := range rows {
			rows[i] = make([]float32, d)
			for j := range rows[i] {
				b := data[4*(i*d+j):]
				v := math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
				if v == 0 {
					v = 0 // -0 and +0 meeting at a median is the order-free test's case
				}
				rows[i][j] = v
			}
		}
		checkAgainstOracles(t, "fuzz", rows, d, float64(pct%50)/100)
	})
}

// The median is a function of the multiset of values: a -0 and a +0 at
// the selected ranks commit the same bits for every Add order.
func TestMedianSignedZeroOrderFree(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, vals := range [][]float32{{negZero, 0, 1}, {negZero, negZero, 0, 0}} {
		seen := map[uint32]string{} // committed bits -> one Add order giving them
		permute(vals, 0, func(order []float32) {
			rows := make([][]float32, len(order))
			for i, v := range order {
				rows[i] = []float32{v}
			}
			seen[math.Float32bits(commitRows(&Median{}, rows, 1)[0])] = fmt.Sprint(order)
		})
		if len(seen) != 1 {
			t.Errorf("median of %v depends on Add order: committed bits by order %v", vals, seen)
		}
	}
}

// permute calls fn with every ordering of vals[i:] behind vals[:i].
func permute(vals []float32, i int, fn func([]float32)) {
	if i == len(vals) {
		fn(vals)
		return
	}
	for j := i; j < len(vals); j++ {
		vals[i], vals[j] = vals[j], vals[i]
		permute(vals, i+1, fn)
		vals[i], vals[j] = vals[j], vals[i]
	}
}

// A commit into a global vector of another length than the round's
// updates is a programmer error: it must fail loudly, naming both
// lengths, instead of committing a prefix or indexing past a row.
func TestRobustCommitRejectsMismatchedGlobal(t *testing.T) {
	for _, build := range []func() Aggregator{
		func() Aggregator { return &Median{} },
		func() Aggregator { return &TrimmedMean{Frac: 0.1} },
	} {
		for _, d := range []int{2, 4} {
			a := build()
			a.Add(Update{Params: []float32{1, 2, 3}})
			a.Add(Update{Params: []float32{4, 5, 6}})
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if want := fmt.Sprintf("commit into %d values, updates have 3", d); !strings.Contains(msg, want) {
						t.Errorf("%s Commit into %d values: panic %q, want it to say %q", AggregatorName(a), d, msg, want)
					}
				}()
				a.Commit(make([]float32, d))
			}()
		}
	}
}
