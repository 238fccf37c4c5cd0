package fedcore

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"fhdnn/internal/invariant"
	"fhdnn/internal/tensor"
)

// Byzantine-robust aggregation. FedAvg and Bundle compute a (weighted)
// mean, whose breakdown point is zero: one colluding client that stays
// inside the quarantine gates (finite values, bounded norm) can drag the
// global model anywhere. The aggregators in this file bound that
// influence:
//
//   - Median replaces the mean with the coordinate-wise median; with
//     f < n/2 poisoned updates every committed coordinate is bracketed by
//     honest values.
//   - TrimmedMean discards the ceil(frac*n) largest and smallest values
//     per coordinate before averaging, tolerating up to that many
//     one-sided outliers per coordinate.
//   - NormClip is a decorator that rescales any update whose L2 norm
//     exceeds a bound before handing it to an inner aggregator — a softer
//     alternative to the flnet norm quarantine that keeps the clipped
//     client's direction but caps its energy.
//
// All three deliberately ignore Update.Samples: a Byzantine client can
// lie about its dataset size, and a sample-weighted robust rule would
// hand it back exactly the influence the trimming removed.
//
// Determinism contract: Commit picks each coordinate's result from a
// total order of its values (orderKey: NaN first, -0 before +0), so the
// committed global vector is a function of the multiset of added updates:
// bit-identical for every Add order and (under the Engine) every worker
// count. Against a float64 sort of each coordinate (the oracles in
// robust_oracle_test.go), the bits differ only where mixed -0 and +0
// straddle Median's selected rank, and in NaN payloads (DESIGN.md,
// "Robust aggregators"). Storage: Add copies u.Params into rows the
// aggregator owns and reuses across Reset, so the caller's slice is free
// again as soon as Add returns (the flnet server decodes every upload
// into a recycled buffer).

// colBlock is how many coordinates a robust Commit gathers into key
// columns at a time: 16 float32 values of every row, one cache line.
const colBlock = 16

// rowArena holds copies of the rows a round adds, in storage that Reset
// keeps for the next round: after the largest round so far, a copy
// allocates nothing.
type rowArena struct {
	rows [][]float32 // rows[:n] are this round's copies, the rest spare
	n    int
}

// hold copies p into the arena's next row and returns the copy.
func (a *rowArena) hold(p []float32) []float32 {
	if a.n == len(a.rows) {
		//fhdnn:allow hotalloc one slot per row of the largest round so far; Reset keeps them
		a.rows = append(a.rows, nil)
	}
	row := a.rows[a.n]
	if cap(row) < len(p) {
		//fhdnn:allow hotalloc a slot's row is allocated once, then reused by every later round
		row = make([]float32, len(p))
	}
	row = row[:len(p)]
	copy(row, p)
	a.rows[a.n] = row
	a.n++
	return row
}

func (a *rowArena) reset() { a.n = 0 }

// columns is the round state of a row-buffering robust aggregator: the
// round's rows, the arena holding its copies of them, and the key scratch
// its Commit gathers them into, sized once per round and reused. rows is
// indexed apart from the arena because MergeFrom appends another
// aggregator's rows to it by reference.
type columns struct {
	rows  [][]float32
	arena rowArena
	// keys holds, per column stripe, colBlock key columns of len(rows)
	// keys followed by len(rows) keys of partition scratch.
	keys []uint32
}

func (c *columns) add(u Update, kind string) {
	checkRowLen(c.rows, u.Params, kind)
	//fhdnn:allow hotalloc rows reuses its backing array across Reset; growth amortizes out
	c.rows = append(c.rows, c.arena.hold(u.Params))
}

// Len implements Aggregator.
func (c *columns) Len() int { return len(c.rows) }

// Reset implements Aggregator.
func (c *columns) Reset() {
	clear(c.rows)
	c.rows = c.rows[:0]
	c.arena.reset()
}

// commit sets global[j] = pick(col, tmp) for every coordinate j, where col
// holds the orderKey of coordinate j in every row and tmp is scratch of
// the same length; pick may clobber both. An empty round leaves global
// untouched.
func (c *columns) commit(global []float32, kind string, pick func(col, tmp []uint32) float32) {
	n := len(c.rows)
	if n == 0 {
		return
	}
	if d := len(c.rows[0]); len(global) != d {
		invariant.Failf("fedcore: %s commit into %d values, updates have %d", kind, len(global), d)
	}
	blocks := (len(global) + colBlock - 1) / colBlock
	stripes := min(tensor.Workers(), blocks)
	per := (colBlock + 1) * n
	if cap(c.keys) < stripes*per {
		//fhdnn:allow hotalloc key scratch sized once per round, reused across commits
		c.keys = make([]uint32, stripes*per)
	}
	rows, keys := c.rows, c.keys
	tensor.ParallelFor(stripes, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			blk := keys[s*per : (s+1)*per]
			tmp := blk[colBlock*n:]
			for b := s * blocks / stripes; b < (s+1)*blocks/stripes; b++ {
				j0 := b * colBlock
				w := min(colBlock, len(global)-j0)
				for i, row := range rows {
					for jj, v := range row[j0 : j0+w] {
						blk[jj*n+i] = orderKey(v)
					}
				}
				for jj := range w {
					global[j0+jj] = pick(blk[jj*n:(jj+1)*n], tmp)
				}
			}
		}
	})
}

// orderKey maps a float32 to a uint32 whose unsigned order is the value
// order, with -0 before +0 and every NaN mapped to 0, first.
func orderKey(v float32) uint32 {
	b := math.Float32bits(v)
	k := b ^ (uint32(int32(b)>>31) | 1<<31)
	if b&^(1<<31) > 0x7f800000 {
		k = 0
	}
	return k
}

// fromOrderKey inverts orderKey exactly for every non-NaN value; key 0
// maps back to a NaN.
func fromOrderKey(k uint32) float32 {
	return math.Float32frombits(k ^ (uint32(int32(^k)>>31) | 1<<31))
}

// Median is the coordinate-wise median aggregator. With an even number of
// updates the two middle values are averaged in float64.
type Median struct {
	columns
}

// Add implements Aggregator.
//
//fhdnn:hotpath called once per client update inside the round loop
func (a *Median) Add(u Update) { a.add(u, "Median") }

// Commit implements Aggregator.
//
//fhdnn:hotpath applies the round aggregate in place
func (a *Median) Commit(global []float32) { a.commit(global, "Median", medianOf) }

// medianOf is the median of one coordinate's keys.
func medianOf(col, tmp []uint32) float32 {
	n := len(col)
	lo, hi := tensor.Select(col, tmp, n/2)
	if n%2 == 1 {
		return fromOrderKey(hi)
	}
	return float32((float64(fromOrderKey(lo)) + float64(fromOrderKey(hi))) / 2)
}

// Name returns the policy spec string.
func (a *Median) Name() string { return "median" }

// TrimmedMean discards the k = ceil(Frac*n) largest and the k smallest
// values of each coordinate and averages the rest (in ascending value
// order, so the result is independent of Add order). Frac 0 degenerates
// to the plain unweighted mean; k is clamped so at least one value always
// survives, which makes Frac >= 0.5 behave like Median on small rounds.
type TrimmedMean struct {
	// Frac is the fraction trimmed from EACH end, in [0, 0.5).
	Frac float64

	columns
}

// Trim returns how many values are discarded from each end of a
// coordinate's sorted column when n updates were added.
func (a *TrimmedMean) Trim(n int) int {
	if a.Frac <= 0 || n == 0 {
		return 0
	}
	k := int(math.Ceil(a.Frac * float64(n)))
	if 2*k >= n {
		k = (n - 1) / 2
	}
	return k
}

// Add implements Aggregator.
//
//fhdnn:hotpath called once per client update inside the round loop
func (a *TrimmedMean) Add(u Update) { a.add(u, "TrimmedMean") }

// Commit implements Aggregator.
//
//fhdnn:hotpath applies the round aggregate in place
func (a *TrimmedMean) Commit(global []float32) {
	n := len(a.rows)
	k := a.Trim(n)
	inv := 1 / float64(n-2*k)
	a.commit(global, "TrimmedMean", func(col, _ []uint32) float32 {
		slices.Sort(col)
		var sum float64
		for _, key := range col[k : n-k] {
			sum += float64(fromOrderKey(key))
		}
		return float32(sum * inv)
	})
}

// Name returns the policy spec string.
func (a *TrimmedMean) Name() string {
	return "trimmed:" + strconv.FormatFloat(a.Frac, 'g', -1, 64)
}

// NormClip decorates Inner: any added update whose L2 norm exceeds Bound
// is rescaled to exactly Bound (preserving its direction) before being
// handed on. Updates at or under the bound pass through bit-identical —
// the caller's slice is never mutated; clipping writes a scratch slice
// that every clipped update reuses, since no aggregator keeps the slice
// it is given. Bound <= 0 disables clipping.
type NormClip struct {
	Inner Aggregator
	Bound float64

	scaled []float32

	// clipped is atomic so a stats scrape may read it while a shard
	// goroutine owns the Add path; everything else follows the usual
	// single-owner Aggregator contract.
	clipped atomic.Int64
}

// Add implements Aggregator.
//
//fhdnn:hotpath called once per client update inside the round loop
func (a *NormClip) Add(u Update) {
	if a.Bound > 0 {
		var sum float64
		for _, v := range u.Params {
			f := float64(v)
			sum += float64(f * f)
		}
		if norm := math.Sqrt(sum); norm > a.Bound {
			scale := a.Bound / norm
			if cap(a.scaled) < len(u.Params) {
				//fhdnn:allow hotalloc clip scratch sized by the first clipped update, reused by the rest
				a.scaled = make([]float32, len(u.Params))
			}
			scaled := a.scaled[:len(u.Params)]
			for i, v := range u.Params {
				scaled[i] = float32(float64(v) * scale)
			}
			u.Params = scaled
			a.clipped.Add(1)
		}
	}
	a.Inner.Add(u)
}

// Len implements Aggregator.
func (a *NormClip) Len() int { return a.Inner.Len() }

// Commit implements Aggregator. The pure delegation carries no hotpath
// annotation of its own: the interface call resolves (in the lint call
// graph) to every Commit in the module, including the sharded tree's
// merge-and-fold commit whose once-per-round allocations are deliberate.
// Each concrete inner Commit enforces its own hotpath contract.
func (a *NormClip) Commit(global []float32) { a.Inner.Commit(global) }

// Reset implements Aggregator (Clipped is cumulative and survives Reset,
// mirroring the server's other defense counters).
func (a *NormClip) Reset() { a.Inner.Reset() }

// Clipped reports how many updates have been rescaled since creation.
func (a *NormClip) Clipped() int64 { return a.clipped.Load() }

// Name returns the policy spec string.
func (a *NormClip) Name() string {
	return "clip:" + strconv.FormatFloat(a.Bound, 'g', -1, 64) + ":" + AggregatorName(a.Inner)
}

// checkRowLen enforces that every update in a round has one length: a
// mismatched update would silently mis-gather columns in Commit.
func checkRowLen(rows [][]float32, params []float32, kind string) {
	if len(rows) > 0 && len(params) != len(rows[0]) {
		invariant.Failf("fedcore: %s update length %d, want %d", kind, len(params), len(rows[0]))
	}
}

// AggregatorName returns the canonical policy spec of an aggregator —
// the same string ParseAggregator accepts. Unknown implementations
// report their dynamic type.
func AggregatorName(a Aggregator) string {
	switch v := a.(type) {
	case interface{ Name() string }:
		return v.Name()
	case *FedAvg:
		return "fedavg"
	case *Bundle:
		return "bundle"
	default:
		return fmt.Sprintf("%T", a)
	}
}

// PolicyError is the typed error every malformed aggregation-policy spec
// maps to. Callers that need to distinguish a bad -aggregator flag from
// other failures match it with errors.As.
type PolicyError struct {
	Spec   string // the spec handed to ParseAggregator (or "sharded" for NewSharded misuse)
	Reason string
}

func (e *PolicyError) Error() string {
	return fmt.Sprintf("fedcore: bad aggregator spec %q: %s", e.Spec, e.Reason)
}

const specGrammar = "want bundle, fedavg, median, trimmed[:frac], clip:bound[:inner]"

// ParseAggregator resolves a server aggregation-policy spec:
//
//	bundle            federated bundling mean
//	fedavg            sample-weighted federated averaging
//	median            coordinate-wise median
//	trimmed           trimmed mean, 0.2 trimmed from each end
//	trimmed:FRAC      trimmed mean with an explicit per-end fraction
//	clip:BOUND        NormClip(bundle, BOUND)
//	clip:BOUND:SPEC   NormClip over any inner spec, e.g. clip:100:median
//
// Every malformed spec — including the empty string — returns a
// *PolicyError; the caller owns defaulting.
func ParseAggregator(spec string) (Aggregator, error) {
	switch {
	case spec == "":
		return nil, &PolicyError{Spec: spec, Reason: "empty spec (" + specGrammar + ")"}
	case spec == "bundle":
		return &Bundle{}, nil
	case spec == "fedavg":
		return &FedAvg{}, nil
	case spec == "median":
		return &Median{}, nil
	case spec == "trimmed":
		return &TrimmedMean{Frac: 0.2}, nil
	case strings.HasPrefix(spec, "trimmed:"):
		frac, err := strconv.ParseFloat(strings.TrimPrefix(spec, "trimmed:"), 64)
		// The explicit !(frac >= 0) form also rejects NaN, which slips
		// past a plain frac < 0 check.
		if err != nil || !(frac >= 0) || frac >= 0.5 {
			return nil, &PolicyError{Spec: spec, Reason: "trim fraction must be a number in [0, 0.5)"}
		}
		return &TrimmedMean{Frac: frac}, nil
	case strings.HasPrefix(spec, "clip:"):
		rest := strings.TrimPrefix(spec, "clip:")
		boundStr, innerSpec, _ := strings.Cut(rest, ":")
		bound, err := strconv.ParseFloat(boundStr, 64)
		if err != nil || !(bound > 0) || math.IsInf(bound, 0) {
			return nil, &PolicyError{Spec: spec, Reason: "clip bound must be a finite positive number"}
		}
		inner := Aggregator(&Bundle{})
		if innerSpec != "" {
			if inner, err = ParseAggregator(innerSpec); err != nil {
				return nil, err
			}
		}
		return &NormClip{Inner: inner, Bound: bound}, nil
	}
	return nil, &PolicyError{Spec: spec, Reason: "unknown aggregator (" + specGrammar + ")"}
}
