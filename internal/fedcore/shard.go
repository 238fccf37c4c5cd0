package fedcore

import (
	"strconv"

	"fhdnn/internal/invariant"
)

// Hierarchical (sharded) aggregation. A ShardedAggregator splits the round across N
// inner aggregators — clients are routed to a shard by a stable hash of
// their identity — and folds the shards into a root at commit time
// through the same Add/Commit contract, so the tree changes where
// contention happens without changing any math:
//
//   - FedAvg and Bundle shards carry partial float64 sums; folding adds
//     the partial sums, which is exactly the flat accumulation re-
//     associated. On integer-valued updates (where float64 addition is
//     exact) the committed global is bit-identical to the flat
//     aggregator for every shard count and every add order.
//   - Median and TrimmedMean shards retain their rows; folding
//     concatenates them, and Commit picks per coordinate from a total
//     order of the values, so the committed global is bit-identical to
//     the flat aggregator for ANY real-valued updates, shard count, and
//     add order.
//   - NormClip clips at Add time inside each shard — clipping is
//     per-update, so where it happens does not matter.
//
// The fold direction is non-destructive: CommitLive builds a fresh root
// from the factory and merges the shards into it, leaving every shard's
// state untouched until Reset. That is what lets a caller exclude dead
// shards (CommitLive with a live mask) and still retry or inspect them.
//
// Concurrency contract: ShardedAggregator itself is not safe for
// concurrent use, same as every other Aggregator. What sharding buys a
// concurrent caller is PARTITIONED ownership: distinct goroutines may
// each own a distinct shard (via Shard(i)) and Add to it without locks,
// provided commits are fenced by a barrier that quiesces all shard
// owners first — for example one token per shard, all held for the
// commit. (flnet's server does not shard: it keeps one aggregator behind
// one token, because its round cost is the uplink, not the fold.)

// Mergeable is implemented by aggregators whose accumulated round state
// can be folded into another instance of the same concrete type. MergeFrom
// must not modify other, so a caller can merge one shard into several
// candidate roots (or skip dead shards and retry).
type Mergeable interface {
	Aggregator
	// MergeFrom folds other's accumulated updates into the receiver.
	// other must be the same concrete type and hold compatible
	// dimensions; a *PolicyError-free typed error is returned otherwise.
	MergeFrom(other Aggregator) error
}

// mergeTypeError reports an attempt to fold mismatched aggregator types.
type mergeTypeError struct{ dst, src string }

func (e *mergeTypeError) Error() string {
	return "fedcore: cannot merge " + e.src + " into " + e.dst
}

// MergeFrom implements Mergeable: shard partial sums add elementwise.
func (a *FedAvg) MergeFrom(other Aggregator) error {
	o, ok := other.(*FedAvg)
	if !ok {
		return &mergeTypeError{dst: "FedAvg", src: AggregatorName(other)}
	}
	if o.n == 0 {
		return nil
	}
	if a.n == 0 {
		a.sum = sizeAccumulator(a.sum, len(o.sum))
	}
	if len(a.sum) != len(o.sum) {
		return &mergeTypeError{dst: "FedAvg", src: "FedAvg with mismatched length"}
	}
	for i, v := range o.sum {
		a.sum[i] += v
	}
	a.totalW += o.totalW
	a.n += o.n
	return nil
}

// MergeFrom implements Mergeable: shard partial sums add elementwise. The
// receiver's Mask (not the shard's) governs the eventual Commit.
func (a *Bundle) MergeFrom(other Aggregator) error {
	o, ok := other.(*Bundle)
	if !ok {
		return &mergeTypeError{dst: "Bundle", src: AggregatorName(other)}
	}
	if o.n == 0 {
		return nil
	}
	if a.n == 0 {
		a.sum = sizeAccumulator(a.sum, len(o.sum))
	}
	if len(a.sum) != len(o.sum) {
		return &mergeTypeError{dst: "Bundle", src: "Bundle with mismatched length"}
	}
	for i, v := range o.sum {
		a.sum[i] += v
	}
	a.n += o.n
	return nil
}

// MergeFrom implements Mergeable: the shard's retained rows are
// concatenated (by reference — rows stay immutable until Reset), so the
// root's per-coordinate selection sees every update exactly as the flat
// aggregator would.
func (a *Median) MergeFrom(other Aggregator) error {
	o, ok := other.(*Median)
	if !ok {
		return &mergeTypeError{dst: "Median", src: AggregatorName(other)}
	}
	return mergeRows(&a.rows, o.rows, "Median")
}

// MergeFrom implements Mergeable; see Median.MergeFrom.
func (a *TrimmedMean) MergeFrom(other Aggregator) error {
	o, ok := other.(*TrimmedMean)
	if !ok {
		return &mergeTypeError{dst: "TrimmedMean", src: AggregatorName(other)}
	}
	if a.Frac != o.Frac {
		return &mergeTypeError{dst: "TrimmedMean", src: "TrimmedMean with different Frac"}
	}
	return mergeRows(&a.rows, o.rows, "TrimmedMean")
}

// mergeRows concatenates row sets, enforcing one row length round-wide.
func mergeRows(dst *[][]float32, src [][]float32, kind string) error {
	for _, row := range src {
		if len(*dst) > 0 && len(row) != len((*dst)[0]) {
			return &mergeTypeError{dst: kind, src: kind + " with mismatched row length"}
		}
		*dst = append(*dst, row)
	}
	return nil
}

// MergeFrom implements Mergeable: the inner aggregators merge and the
// clip counters add (each shard already clipped its own updates at Add
// time, so the merged state carries only already-clipped rows).
func (a *NormClip) MergeFrom(other Aggregator) error {
	o, ok := other.(*NormClip)
	if !ok {
		return &mergeTypeError{dst: "NormClip", src: AggregatorName(other)}
	}
	if a.Bound != o.Bound {
		return &mergeTypeError{dst: "NormClip", src: "NormClip with different Bound"}
	}
	inner, ok := a.Inner.(Mergeable)
	if !ok {
		return &mergeTypeError{dst: "NormClip", src: "non-mergeable inner " + AggregatorName(a.Inner)}
	}
	if err := inner.MergeFrom(o.Inner); err != nil {
		return err
	}
	a.clipped.Add(o.clipped.Load())
	return nil
}

// ShardedAggregator owns N inner aggregators and routes each update to
// one of them by a stable hash of the client identity; Commit folds the
// shards (in shard-index order) into a fresh root built by the factory
// and commits the root. See the package comment above for the
// bit-identity and concurrency contracts.
type ShardedAggregator struct {
	shards  []Aggregator
	factory func() Aggregator
	spec    string // canonical inner policy spec, for Name
}

// NewSharded builds a ShardedAggregator with n shards. factory must
// return a fresh Mergeable instance on every call (shards and the commit
// root must not share state).
func NewSharded(n int, factory func() Aggregator) (*ShardedAggregator, error) {
	if n <= 0 {
		return nil, &PolicyError{Spec: "sharded", Reason: "shard count must be positive, got " + strconv.Itoa(n)}
	}
	if factory == nil {
		return nil, &PolicyError{Spec: "sharded", Reason: "nil aggregator factory"}
	}
	shards := make([]Aggregator, n)
	for i := range shards {
		a := factory()
		if a == nil {
			return nil, &PolicyError{Spec: "sharded", Reason: "factory returned nil"}
		}
		if _, ok := a.(Mergeable); !ok {
			return nil, &PolicyError{Spec: "sharded",
				Reason: AggregatorName(a) + " is not shard-mergeable (no MergeFrom)"}
		}
		if i > 0 && a == shards[0] {
			return nil, &PolicyError{Spec: "sharded",
				Reason: "factory must return a fresh instance per call, got the same " + AggregatorName(a)}
		}
		shards[i] = a
	}
	return &ShardedAggregator{shards: shards, factory: factory, spec: AggregatorName(shards[0])}, nil
}

// Shards returns the shard count.
func (s *ShardedAggregator) Shards() int { return len(s.shards) }

// Shard returns shard i's inner aggregator. A concurrent caller may give
// each shard one owner at a time; see the concurrency contract above.
func (s *ShardedAggregator) Shard(i int) Aggregator { return s.shards[i] }

// shardIndex is the stable client-identity hash (32-bit FNV-1a) the
// sharded tree routes by: the same id always lands on the same of n
// shards, so per-shard client dedupe state stays local to one shard.
func shardIndex(id string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// ShardFor returns the shard index an update routes to: by ClientID when
// set, else by the numeric simulation Client id, else shard 0.
func (s *ShardedAggregator) ShardFor(u Update) int {
	if u.ClientID != "" {
		return shardIndex(u.ClientID, len(s.shards))
	}
	if u.Client >= 0 {
		return u.Client % len(s.shards)
	}
	return 0
}

// Add implements Aggregator, routing the update to its shard. It adds no
// allocation to the shard's own (TestWarmAccumulatorReused).
func (s *ShardedAggregator) Add(u Update) {
	i := s.ShardFor(u)
	if i < 0 || i >= len(s.shards) {
		// Cannot fire (ShardFor reduces modulo the shard count), but
		// ClientID arrives off the wire, so the index is checked before
		// it is used rather than trusted.
		invariant.Fail("fedcore: ShardFor returned an index out of range")
		return
	}
	s.shards[i].Add(u)
}

// Len implements Aggregator: total updates across all shards.
func (s *ShardedAggregator) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Commit implements Aggregator: fold every shard into a fresh root and
// commit the root. Shard state is left untouched (call Reset afterwards,
// as with every Aggregator).
func (s *ShardedAggregator) Commit(global []float32) {
	s.CommitLive(global, nil)
}

// CommitLive folds only the shards whose live flag is set (nil = all)
// into a fresh root and commits it — the degraded partial-aggregation
// path when part of the tree has died. With every live shard empty the
// commit is a no-op and the previous global carries forward.
func (s *ShardedAggregator) CommitLive(global []float32, live []bool) {
	if live != nil && len(live) != len(s.shards) {
		invariant.Failf("fedcore: CommitLive mask length %d, want %d", len(live), len(s.shards))
	}
	root := s.factory().(Mergeable)
	for i, sh := range s.shards {
		if live != nil && !live[i] {
			continue
		}
		if err := root.MergeFrom(sh); err != nil {
			invariant.Failf("fedcore: sharded commit: %v", err)
		}
	}
	root.Commit(global)
}

// Reset implements Aggregator.
func (s *ShardedAggregator) Reset() {
	for _, sh := range s.shards {
		sh.Reset()
	}
}

// Clipped reports the total updates rescaled across all shards (nonzero
// only when the inner policy is a NormClip).
func (s *ShardedAggregator) Clipped() int64 {
	var total int64
	for _, sh := range s.shards {
		if c, ok := sh.(interface{ Clipped() int64 }); ok {
			total += c.Clipped()
		}
	}
	return total
}

// Name returns the policy spec string.
func (s *ShardedAggregator) Name() string {
	return "sharded:" + strconv.Itoa(len(s.shards)) + ":" + s.spec
}
