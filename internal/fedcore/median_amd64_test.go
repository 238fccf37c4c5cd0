package fedcore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fhdnn/internal/tensor"
)

// specials are the values the order keys must place exactly: NaNs with
// assorted payloads and signs, both zeros, both infinities, the largest
// finite values and the subnormals at both ends.
var specials = []float32{
	math.Float32frombits(0x7fc00000), // the quiet NaN
	math.Float32frombits(0x7f800001), // a signalling NaN
	math.Float32frombits(0xffc01234), // a negative NaN with a payload
	math.Float32frombits(0x7fffffff), // the NaN with the largest key bits
	float32(math.Copysign(0, -1)),
	0,
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.MaxFloat32,
	-math.MaxFloat32,
	math.SmallestNonzeroFloat32,
	-math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // the largest subnormal
	math.Float32frombits(0x807fffff),
	1,
	-1,
}

// kernelRows draws n rows of 3*colBlock values whose middle block holds
// one kind of column; the blocks around it hold specials, which the
// kernel must not read.
func kernelRows(rng *rand.Rand, kind string, n int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		row := make([]float32, 3*colBlock)
		for j := range row {
			row[j] = specials[rng.Intn(len(specials))]
		}
		for jj := range colBlock {
			g := float32(rng.NormFloat64())
			v := g
			switch kind {
			case "specials":
				if rng.Intn(2) == 0 {
					v = specials[rng.Intn(len(specials))]
				}
			case "nan":
				if rng.Intn(4) == 0 {
					v = math.Float32frombits(0x7f800000 | rng.Uint32()&0x807fffff | 1)
				}
			case "zeros": // mostly signed zeros, so both straddle rank n/2
				v = []float32{-1, float32(math.Copysign(0, -1)), 0, 1}[rng.Intn(4)]
				if rng.Intn(3) > 0 {
					v = float32(math.Copysign(0, float64(-rng.Intn(2))))
				}
			case "inf":
				v = []float32{g, float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(3)]
			case "subnormal":
				v = math.Float32frombits(rng.Uint32()&0x807fffff | 1)
			case "max":
				v = []float32{g, math.MaxFloat32, -math.MaxFloat32}[rng.Intn(3)]
			case "equal": // column jj holds specials[jj] in every row
				v = specials[jj]
			case "ties":
				v = float32(rng.Intn(3) - 1)
			}
			row[colBlock+jj] = v
		}
		rows[i] = row
	}
	return rows
}

// The AVX-512 block select must pick, in every lane, the keys of ranks
// n/2 and (for even n) n/2-1 that tensor.Select and a sort of the column
// pick, from keys converted exactly as orderKey converts them; medianBlock
// must commit what the float64 sort oracle commits, up to the sign of a
// zero and the payload of a NaN.
func TestMedianBlockAVX512MatchesSelect(t *testing.T) {
	if !tensor.HasAVX512() {
		t.Skip("no AVX-512F, or the OS does not save the ZMM state")
	}
	rng := rand.New(rand.NewSource(52))
	ns := []int{196, 197, 256}
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for _, kind := range []string{"gaussian", "specials", "nan", "zeros", "inf", "subnormal", "max", "equal", "ties"} {
			name := fmt.Sprintf("n=%d %s", n, kind)
			rows := kernelRows(rng, kind, n)
			blk := make([]uint32, colBlock*n)
			var out [2 * colBlock]uint32
			medianBlockAVX512(&out, rows, colBlock, blk)

			col, sorted, tmp := make([]uint32, n), make([]uint32, n), make([]uint32, n)
			for jj := range colBlock {
				for i, row := range rows {
					col[i] = orderKey(row[colBlock+jj])
					if got := blk[i*colBlock+jj]; got != col[i] {
						t.Fatalf("%s: key of row %d lane %d = %#08x, orderKey %#08x", name, i, jj, got, col[i])
					}
				}
				copy(sorted, col)
				slices.Sort(sorted)
				below, at := tensor.Select(col, tmp, n/2)
				if got := out[colBlock+jj]; got != at || got != sorted[n/2] {
					t.Fatalf("%s lane %d: rank %d key %#08x, Select %#08x, sort %#08x", name, jj, n/2, got, at, sorted[n/2])
				}
				if got := out[jj]; n%2 == 0 && (got != below || got != sorted[n/2-1]) {
					t.Fatalf("%s lane %d: rank %d key %#08x, Select %#08x, sort %#08x", name, jj, n/2-1, got, below, sorted[n/2-1])
				}
			}

			block := make([][]float32, n)
			for i, row := range rows {
				block[i] = row[colBlock : 2*colBlock]
			}
			want := make([]float32, colBlock)
			medianOracle(block, want)
			got := make([]float32, colBlock)
			if !medianBlock(got, rows, colBlock, blk) {
				t.Fatalf("%s: medianBlock declined a whole block on an AVX-512F host", name)
			}
			for jj := range got {
				if got[jj] != want[jj] && !(got[jj] != got[jj] && want[jj] != want[jj]) {
					t.Fatalf("%s lane %d: median %v, sort oracle %v", name, jj, got[jj], want[jj])
				}
			}
		}
	}
}
