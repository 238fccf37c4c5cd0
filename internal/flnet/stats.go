package flnet

import (
	"sync"
	"sync/atomic"
)

// serverStats is the dedicated stats block: every counter a /v1/stats
// scrape reads lives here, off the model mutex and off the aggregator token.
// Scalar counters are atomics; the two per-key maps sit behind their own
// tiny mutex that is only ever held across map ops (never across channel
// or I/O work), so a scrape can never contend with aggregation or a
// round commit.
type serverStats struct {
	updatesAccepted        atomic.Int64
	updatesRejected        atomic.Int64
	updatesQuarantined     atomic.Int64
	duplicateUpdates       atomic.Int64
	updatesThrottled       atomic.Int64
	shardTimeouts          atomic.Int64
	roundsForcedByDeadline atomic.Int64
	bytesReceived          atomic.Int64

	mu                  sync.Mutex
	quarantinedByReason map[string]int64
	updatesByCodec      map[string]int64
}

func newServerStats() *serverStats {
	return &serverStats{
		quarantinedByReason: make(map[string]int64),
		updatesByCodec:      make(map[string]int64),
	}
}

// quarantine books one refused update under its reason key.
func (st *serverStats) quarantine(reason string) {
	st.updatesQuarantined.Add(1)
	st.mu.Lock()
	st.quarantinedByReason[reason]++
	st.mu.Unlock()
}

// accept books one aggregated update under its codec name.
func (st *serverStats) accept(codecName string) {
	st.updatesAccepted.Add(1)
	st.mu.Lock()
	st.updatesByCodec[codecName]++
	st.mu.Unlock()
}

// snapshotMaps copies the per-key breakdowns for a stats response.
func (st *serverStats) snapshotMaps() (byReason, byCodec map[string]int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	byReason = make(map[string]int64, len(st.quarantinedByReason))
	for k, v := range st.quarantinedByReason {
		byReason[k] = v
	}
	byCodec = make(map[string]int64, len(st.updatesByCodec))
	for k, v := range st.updatesByCodec {
		byCodec[k] = v
	}
	return byReason, byCodec
}

// ShardStats is the aggregation-queue block inside Stats (the server has
// one aggregator, so PerShard has one entry, Shard 0): depth and drop
// counts expose where backpressure is biting, and commit counts how many
// round commits folded the aggregator. Accepted, Duplicates, Dropped and
// Pending repeat UpdatesAccepted, DuplicateUpdates, UpdatesThrottled and
// /v1/round's updatesPending; they stay for existing scrapers.
type ShardStats struct {
	Shard      int   `json:"shard"`
	Depth      int64 `json:"depth"`    // handlers waiting on or holding the token right now
	Enqueued   int64 `json:"enqueued"` // uploads ever admitted past the 429 gate
	Accepted   int64 `json:"accepted"`
	Stale      int64 `json:"stale"` // uploads the round gate refused under the token
	Duplicates int64 `json:"duplicates"`
	Dropped    int64 `json:"dropped"` // over-queue-bound rejections (429)
	Commits    int64 `json:"commits"` // round commits that folded the aggregator
	Pending    int64 `json:"pending"` // accepted updates awaiting the next commit
	Dead       bool  `json:"dead"`    // always false: a commit waits for the token, it never writes the aggregator off
}

// Stats is the JSON body of GET /v1/stats. BytesReceived counts the wire
// bytes actually consumed from update bodies — the compressed envelope
// size, so the endpoint directly reports the uplink savings a codec buys.
// UpdatesByCodec breaks accepted updates down by the codec name their
// envelope carried. UpdatesQuarantined is the
// total across QuarantinedByReason; UpdatesClipped counts updates the
// aggregation policy rescaled (nonzero only under a fedcore.NormClip
// policy — a clipped update is still accepted, unlike a quarantined one).
//
// The backpressure block: Shards is always 1 (one aggregator),
// UpdatesThrottled counts 429 over-queue-bound rejections, ShardTimeouts
// counts uploads answered 503 because the aggregator token never came
// free within the upload timeout (such an upload is never aggregated),
// and PerShard carries its one depth/drop/commit entry. PartialCommits
// and DeadShards always read 0: a round commit waits for the token
// rather than writing the aggregator off, so no round commits without
// it. They stay in the schema for existing scrapers.
type Stats struct {
	Round                  int              `json:"round"`
	Aggregator             string           `json:"aggregator"`
	Shards                 int              `json:"shards"`
	UpdatesAccepted        int64            `json:"updatesAccepted"`
	UpdatesRejected        int64            `json:"updatesRejected"`
	UpdatesQuarantined     int64            `json:"updatesQuarantined"`
	QuarantinedByReason    map[string]int64 `json:"quarantinedByReason,omitempty"`
	UpdatesClipped         int64            `json:"updatesClipped"`
	DuplicateUpdates       int64            `json:"duplicateUpdates"`
	UpdatesThrottled       int64            `json:"updatesThrottled"`
	ShardTimeouts          int64            `json:"shardTimeouts"`
	RoundsForcedByDeadline int64            `json:"roundsForcedByDeadline"`
	PartialCommits         int64            `json:"partialCommits"`
	DeadShards             int              `json:"deadShards"`
	BytesReceived          int64            `json:"bytesReceived"`
	UpdatesByCodec         map[string]int64 `json:"updatesByCodec,omitempty"`
	PerShard               []ShardStats     `json:"perShard,omitempty"`
	Closed                 bool             `json:"closed"`
}
