// Package flnet is the wire-level federated bundling service: an HTTP
// server hosting the global HD model and aggregating client updates, plus
// the matching client. The in-process simulator (package fl) answers the
// paper's experimental questions; this package is what an actual AIoT
// deployment would run — the updates crossing this API are exactly the
// flat prototype matrices whose size and robustness the paper analyzes.
//
// Protocol (all payloads little-endian binary, metadata as JSON):
//
//	GET  /v1/round            -> {"round":N,"updatesPending":k,"closed":bool}
//	GET  /v1/model            -> binary global model, X-Fhdnn-Round header
//	GET  /v1/stats            -> cumulative counters (rounds, updates, bytes)
//	POST /v1/update?round=N   -> client update; 409 if N is stale,
//	                             422 if quarantined, 429 + Retry-After if
//	                             too many uploads are queued, 503 if the
//	                             aggregator token stayed out past the
//	                             upload timeout, 410 after close
//
// Update framing: an update body is a fedcore wire envelope — magic,
// codec id, element count, CRC32, then the compress.Codec payload — and
// nothing else; the codec is the client's choice among the ids fedcore
// registers. A body that is not a valid envelope for the server's
// NumClasses*Dim — bad magic, truncated payload, wrong element count,
// checksum mismatch, codec error — is quarantined with HTTP 422, the same
// refusal that meets non-finite updates. That includes the bare hdc model
// serialization clients posted before the envelope existed: such a client
// sees ErrQuarantined on every upload and must be upgraded.
//
// Aggregation is streaming (see shard.go) and runs on the upload
// handler's own goroutine — the server starts none. One aggregator sits
// behind a one-token lock; the handler takes the token and folds the
// update in as it arrives. Too many handlers waiting on the token answers
// 429 with a Retry-After hint — backpressure instead of an unbounded
// pile-up. A round closes when MinUpdates client models have arrived, or
// — when a RoundDeadline is configured — when the deadline expires with
// at least one update pending (partial aggregation; an empty round is
// carried forward). The commit runs on whichever goroutine closes the
// round, under the same token, and waits for it: an Add that never
// returns stalls the round visibly (uploads answer 503) until it does,
// and Shutdown gives up on it when its context ends.
//
// Clients may identify themselves with the X-Fhdnn-Client header; a
// second update from the same client in one round is accepted
// idempotently but not aggregated twice, which makes client-side retries
// safe. Updates containing non-finite parameters (NaN/Inf, e.g. produced
// by bit errors on the uplink) or with an L2 norm above MaxUpdateNorm are
// quarantined with HTTP 422 before they can poison the global model. The
// commit rule defaults to fedcore.Bundle — the same federated-bundling
// rule the in-process simulator uses — but ServerConfig.Aggregator swaps
// in a Byzantine-robust policy (coordinate-wise median, trimmed mean, or
// norm-clipping; see fedcore.ParseAggregator) for deployments where a
// colluding minority of in-bound poisoners would sail straight through
// the quarantine gates. GET /v1/stats reports the active policy, a
// per-reason quarantine breakdown, how many updates the policy clipped,
// and the aggregation queue's depth/drop/commit gauges.
package flnet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// RoundHeader is the response header carrying the server's current round.
// Both header names are in the canonical form net/http keys and sends
// them in, so Header.Get and Set use them without rewriting (and
// allocating) a canonical copy on every call, and a handler may index an
// http.Header with them directly.
const RoundHeader = "X-Fhdnn-Round"

// ClientHeader is the optional request header identifying the sending
// client; the server deduplicates updates per (client, round).
const ClientHeader = "X-Fhdnn-Client"

// EnvelopeContentType is the Content-Type clients put on POST /v1/update.
// The server does not read it: the envelope's own magic identifies the
// body.
const EnvelopeContentType = "application/x-fhdnn-envelope"

// How long an upload handler waits for the aggregator token before
// answering 503, the Retry-After hint on 429 responses, and how many
// handlers may wait on or hold the token before one more answers 429.
const (
	defaultUploadTimeout = 30 * time.Second
	defaultRetryAfter    = time.Second
	defaultShardQueue    = 256
)

// ServerConfig sizes the aggregation service.
type ServerConfig struct {
	NumClasses int
	Dim        int
	// MinUpdates closes a round once this many client updates arrived.
	// The round folds at least that many: the handler that adds the
	// MinUpdates-th update returns the aggregator token before it commits,
	// so an upload racing the close can still land in the same round.
	MinUpdates int
	// MaxRounds stops accepting updates after this many rounds
	// (0 = unlimited; negative is rejected).
	MaxRounds int
	// RoundDeadline forcibly closes a round this long after it opens,
	// aggregating whatever arrived even if fewer than MinUpdates. A
	// round with zero updates is carried forward for another deadline
	// instead of aggregating nothing. 0 disables deadlines (a round
	// then waits for MinUpdates indefinitely).
	RoundDeadline time.Duration
	// MaxUpdateNorm quarantines updates whose L2 norm exceeds it
	// (0 disables the norm gate; non-finite values are always
	// quarantined).
	MaxUpdateNorm float64
	// Aggregator, when set, replaces the default fedcore.Bundle commit
	// rule with another server policy — fedcore.Median, TrimmedMean, or
	// NormClip for Byzantine robustness (see fedcore.ParseAggregator for
	// the spec grammar). The instance donates its canonical policy spec:
	// the server builds its own fresh aggregator from that spec, so it
	// must round-trip through ParseAggregator.
	Aggregator fedcore.Aggregator
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	if c.NumClasses <= 0 || c.Dim <= 0 {
		return fmt.Errorf("flnet: invalid model dims %dx%d", c.NumClasses, c.Dim)
	}
	if c.MinUpdates <= 0 {
		return fmt.Errorf("flnet: MinUpdates must be positive")
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("flnet: negative MaxRounds")
	}
	if c.RoundDeadline < 0 {
		return fmt.Errorf("flnet: negative RoundDeadline")
	}
	if !(c.MaxUpdateNorm >= 0) { // NaN-proof: a NaN bound would silently disable the gate
		return fmt.Errorf("flnet: MaxUpdateNorm %v is negative or NaN", c.MaxUpdateNorm)
	}
	return nil
}

// Server is the federated aggregation endpoint. It is safe for concurrent
// use: the handler gates are lock-free (atomics), round state sits
// behind one token (see shard.go), and the only mutex fences
// the global model buffer and the round number between the round commit
// and snapshot reads.
type Server struct {
	cfg           ServerConfig
	aggName       string // canonical inner policy spec, for Stats
	shardQueue    int64
	uploadTimeout time.Duration
	retryAfter    time.Duration

	mu    sync.Mutex // guards model, and round against Model snapshots
	model *hdc.Model
	// fetch caches the encoded global for GET /v1/model: built by the
	// first fetch after a commit, cleared by the commit, both under mu.
	fetch atomic.Pointer[modelSnapshot]

	round         atomic.Int64
	closed        atomic.Bool
	acceptedRound atomic.Int64 // updates accepted into the open round

	agg      fedcore.Aggregator
	token    chan struct{}   // capacity 1; holding the token owns agg, seen and the round commit
	seen     map[string]bool // per-round client dedupe
	queue    queueStats
	stopAll  chan struct{} // closed by Shutdown; releases everyone waiting on the token
	stopOnce sync.Once

	deadlineTimer *time.Timer // owned by the token holder after NewServer

	// uploads recycles *uploadBuf between upload handlers.
	uploads sync.Pool

	stats *serverStats
}

// uploadBuf is one upload handler's scratch: the body as read, and the
// update decoded from it. A handler takes one from Server.uploads and
// puts it back when it returns, whatever it answered; nothing keeps
// either slice past that, since every aggregator copies what it keeps.
type uploadBuf struct {
	body   []byte
	params []float32
}

// NewServer creates a server with a zero-initialized global model at
// round 1. It starts no goroutine: aggregation and round commits run on
// the goroutines that call the handler, the deadline timer's, and
// Shutdown's. If cfg.RoundDeadline is set, the round-1 deadline starts
// ticking immediately (Shutdown stops it).
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := "bundle"
	if cfg.Aggregator != nil {
		spec = fedcore.AggregatorName(cfg.Aggregator)
	}
	agg, err := fedcore.ParseAggregator(spec)
	if err != nil {
		return nil, fmt.Errorf("flnet: aggregator does not round-trip its spec %q: %w", spec, err)
	}
	s := &Server{
		cfg:           cfg,
		aggName:       spec,
		shardQueue:    defaultShardQueue,
		uploadTimeout: defaultUploadTimeout,
		retryAfter:    defaultRetryAfter,
		model:         hdc.NewModel(cfg.NumClasses, cfg.Dim),
		agg:           agg,
		token:         make(chan struct{}, 1),
		seen:          make(map[string]bool),
		stopAll:       make(chan struct{}),
		uploads:       sync.Pool{New: func() any { return new(uploadBuf) }},
		stats:         newServerStats(),
	}
	s.round.Store(1)
	// The first deadline is armed before the token exists, so a timer that
	// fires at once still finds deadlineTimer written.
	s.armDeadline()
	s.token <- struct{}{}
	return s, nil
}

// Model returns a snapshot of the current global model and round.
func (s *Server) Model() (*hdc.Model, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model.Clone(), int(s.round.Load())
}

// Round returns the current round number.
func (s *Server) Round() int { return int(s.round.Load()) }

// Closed reports whether the server has finished MaxRounds (or was shut
// down).
func (s *Server) Closed() bool { return s.closed.Load() }

// Shutdown closes the current round cleanly: pending updates are
// aggregated into the global model, the deadline timer is stopped, all
// further updates are refused with 410 Gone, and everyone still waiting
// on the aggregator token is released. If an Add still holds the token
// when ctx ends, the server closes with that round unfolded, leaving the
// deadline timer and the aggregator to the holder, and Shutdown returns
// ctx.Err(). It is idempotent and safe to call while handlers are in
// flight; a ctx already done on entry shuts nothing.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var err error
	s.stopOnce.Do(func() {
		if !s.commit(commitShutdown, 0, ctx.Done()) {
			s.closed.Store(true)
			err = ctx.Err()
		}
		close(s.stopAll)
	})
	return err
}

// Handler returns the HTTP handler implementing the protocol.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/round", s.handleRound)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	return mux
}

func (s *Server) handleRound(w http.ResponseWriter, r *http.Request) {
	info := RoundInfo{
		Round:          int(s.round.Load()),
		UpdatesPending: int(s.acceptedRound.Load()),
		MinUpdates:     s.cfg.MinUpdates,
		Closed:         s.closed.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(info); err != nil {
		// connection-level failure; nothing more to do
		return
	}
}

// Quarantine reason keys, as reported in Stats.QuarantinedByReason. Each
// names the gate that refused the update: a non-finite parameter, the
// L2 norm bound, a malformed wire envelope, or an envelope whose CRC32
// did not match its payload.
const (
	QuarantineNonFinite = "nonfinite"
	QuarantineNormBound = "normbound"
	QuarantineEnvelope  = "envelope"
	QuarantineChecksum  = "checksum"
)

// Stats returns a snapshot of the cumulative counters.
func (s *Server) Stats() Stats {
	byReason, byCodec := s.stats.snapshotMaps()
	q := &s.queue
	accepted := s.stats.updatesAccepted.Load()
	duplicates := s.stats.duplicateUpdates.Load()
	throttled := s.stats.updatesThrottled.Load()
	per := ShardStats{
		Depth:      q.depth.Load(),
		Enqueued:   q.enqueued.Load(),
		Accepted:   accepted,
		Stale:      q.stale.Load(),
		Duplicates: duplicates,
		Dropped:    throttled,
		Commits:    q.commits.Load(),
		Pending:    s.acceptedRound.Load(),
	}
	var clipped int64
	if c, ok := s.agg.(interface{ Clipped() int64 }); ok {
		clipped = c.Clipped()
	}
	return Stats{
		Round:                  int(s.round.Load()),
		Aggregator:             s.aggName,
		Shards:                 1,
		UpdatesAccepted:        accepted,
		UpdatesRejected:        s.stats.updatesRejected.Load(),
		UpdatesQuarantined:     s.stats.updatesQuarantined.Load(),
		QuarantinedByReason:    byReason,
		UpdatesClipped:         clipped,
		DuplicateUpdates:       duplicates,
		UpdatesThrottled:       throttled,
		ShardTimeouts:          s.stats.shardTimeouts.Load(),
		RoundsForcedByDeadline: s.stats.roundsForcedByDeadline.Load(),
		BytesReceived:          s.stats.bytesReceived.Load(),
		UpdatesByCodec:         byCodec,
		PerShard:               []ShardStats{per},
		Closed:                 s.closed.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		return
	}
}

// modelSnapshot is one commit's global model as GET /v1/model serves it:
// the hdc.Model.WriteTo bytes, and the Content-Length and RoundHeader
// (the round the bytes belong to) values of every response that serves
// them. It is immutable once published: net/http only reads a response's
// header values, so every fetch of the commit shares these.
type modelSnapshot struct {
	body        []byte
	length      []string
	roundHeader []string
}

// octetStream is the Content-Type value of every GET /v1/model response.
var octetStream = []string{"application/octet-stream"}

// fetchSnapshot returns the current round's snapshot, building it on the
// first fetch after a commit. The build runs under mu, so the body and
// round always come from the same commit; later fetches of the round
// share it without a lock, a clone or an encode.
func (s *Server) fetchSnapshot() *modelSnapshot {
	if snap := s.fetch.Load(); snap != nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := s.fetch.Load(); snap != nil {
		return snap
	}
	var buf bytes.Buffer
	_, _ = s.model.WriteTo(&buf) // a bytes.Buffer write cannot fail
	snap := &modelSnapshot{
		body:        buf.Bytes(),
		length:      []string{strconv.Itoa(buf.Len())},
		roundHeader: []string{strconv.FormatInt(s.round.Load(), 10)},
	}
	s.fetch.Store(snap)
	return snap
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	snap := s.fetchSnapshot()
	h := w.Header()
	h["Content-Type"] = octetStream
	h["Content-Length"] = snap.length
	h[RoundHeader] = snap.roundHeader
	_, _ = w.Write(snap.body)
}

// roundParam returns url.ParseQuery(rawQuery).Get("round") without
// building the map: the first value of the first well-formed "round" key,
// unescaped ("+" as space, %XX escapes). Pairs holding a ';' or a bad
// escape in their key or value are skipped, as ParseQuery skips them. It
// allocates only to unescape a key or value that holds an escape.
func roundParam(rawQuery string) string {
	for q := rawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if key, err := url.QueryUnescape(key); err != nil || key != "round" {
			continue
		}
		if value, err := url.QueryUnescape(value); err == nil {
			return value
		}
	}
	return ""
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	wantRound, err := strconv.Atoi(roundParam(r.URL.RawQuery))
	if err != nil {
		http.Error(w, "flnet: missing or bad round parameter", http.StatusBadRequest)
		return
	}
	clientID := r.Header.Get(ClientHeader)
	n := s.cfg.NumClasses * s.cfg.Dim
	// Limit covers the worst-case envelope (top-k at Frac 1: header + 4 + 8n).
	limit := int64(64 + fedcore.EnvelopeOverhead + 8*n)
	declared := r.ContentLength
	if declared < 0 || declared > limit {
		declared = limit
	}
	buf := s.uploads.Get().(*uploadBuf)
	defer s.uploads.Put(buf)
	data, err := readBody(http.MaxBytesReader(w, r.Body, limit), declared, buf.body[:0])
	buf.body = data
	// Bytes actually consumed, read error or not: real uplink traffic
	// rather than a payload-only estimate.
	s.stats.bytesReceived.Add(int64(len(data)))

	// Decode with no lock held; it does not touch round state.
	if cap(buf.params) < n {
		buf.params = make([]float32, n)
	}
	flat := buf.params[:n]
	var id fedcore.CodecID
	if err != nil {
		err = fmt.Errorf("read body: %w", err)
	} else {
		id, err = fedcore.DecodeEnvelopeInto(flat, data)
	}
	if err != nil {
		// A body that is not a valid envelope — bad magic, truncated
		// payload, checksum or codec-level failure — is quarantine material
		// just like a non-finite update: refusing it protects the global
		// model, and the client knows not to retry the same bytes. Checksum
		// mismatches get their own stats key: a rising checksum count
		// points at line corruption, a rising envelope count at a broken,
		// outdated or hostile client implementation.
		reason := QuarantineEnvelope
		if errors.Is(err, fedcore.ErrEnvelopeChecksum) {
			reason = QuarantineChecksum
		}
		s.stats.quarantine(reason)
		http.Error(w, "flnet: update quarantined: bad envelope: "+err.Error(),
			http.StatusUnprocessableEntity)
		return
	}
	s.routeUpdate(w, wantRound, clientID, fedcore.CodecName(id), flat)
}

// readBody reads r to EOF like io.ReadAll, appending to b (a recycled
// buffer, or nil), and sizes the buffer for a body of declared bytes
// (negative: unknown). A nil b starts at ReadAll's 512 B; a full buffer
// grows 4x at a time, never past declared+1, so a truthfully declared
// body costs a handful of allocations and the spare byte sees EOF without
// a last regrowth. It never allocates from declared alone: a buffer it
// makes is at most 4x the bytes actually read (or the 512 B start), so a
// header that promises a large body and sends none pins only the start,
// or the recycled b.
func readBody(r io.Reader, declared int64, b []byte) ([]byte, error) {
	if cap(b) == 0 {
		b = make([]byte, 0, bodyCap(0, declared))
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			grown := make([]byte, len(b), bodyCap(len(b), declared))
			copy(grown, b)
			b = grown
		}
	}
}

// bodyCap is readBody's next capacity after have bytes: 512 to start,
// then 4x, cut to declared+1 while the body has not outrun declared. The
// cut is compared in int64, so a declared length past a 32-bit int never
// wraps into a capacity.
func bodyCap(have int, declared int64) int {
	c := 512
	if have > 0 {
		c = 4 * have
	}
	if declared >= int64(have) && declared < int64(c-1) {
		c = int(declared) + 1
	}
	return c
}

// routeUpdate runs the lock-free gates on a decoded update — closed,
// stale round, quarantine — then admits the handler to the aggregation
// queue, takes the token, aggregates inline, and closes the round itself
// if this update was the MinUpdates-th. Too many handlers in the queue is
// backpressure: 429 with a Retry-After hint, the client's cue to pace
// itself.
func (s *Server) routeUpdate(w http.ResponseWriter, wantRound int, clientID, codecName string, flat []float32) {
	if s.closed.Load() {
		s.stats.updatesRejected.Add(1)
		http.Error(w, "flnet: training finished", http.StatusGone)
		return
	}
	if round := int(s.round.Load()); wantRound != round {
		s.stats.updatesRejected.Add(1)
		s.staleResponse(w, wantRound, round)
		return
	}
	if reason, detail := quarantineReason(flat, s.cfg.MaxUpdateNorm); reason != "" {
		s.stats.quarantine(reason)
		http.Error(w, "flnet: update quarantined: "+detail, http.StatusUnprocessableEntity)
		return
	}
	q := &s.queue
	if q.depth.Add(1) > s.shardQueue {
		q.depth.Add(-1)
		s.stats.updatesThrottled.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.retryAfter)))
		http.Error(w, "flnet: aggregator busy, retry later", http.StatusTooManyRequests)
		return
	}
	q.enqueued.Add(1)
	if !s.take(s.uploadTimeout, s.stopAll) {
		q.depth.Add(-1)
		// Shutdown closes the server before it releases the waiters, so a
		// stop and a timeout on a finished server both answer 410.
		if s.closed.Load() {
			s.stats.updatesRejected.Add(1)
			http.Error(w, "flnet: training finished", http.StatusGone)
			return
		}
		s.stats.shardTimeouts.Add(1)
		http.Error(w, "flnet: aggregator unresponsive", http.StatusServiceUnavailable)
		return
	}
	status, round, closes := s.aggregate(wantRound, clientID, codecName, flat)
	s.token <- struct{}{}
	q.depth.Add(-1)
	if closes {
		// Token returned first: commit takes it again (see shard.go).
		// Committing before the 202 keeps the synchronous contract: the
		// triggering client's answer is not written until the round has
		// advanced.
		s.commit(commitMinUpdates, round, s.stopAll)
	}
	switch status {
	case http.StatusConflict:
		s.staleResponse(w, wantRound, round)
	case http.StatusGone:
		http.Error(w, "flnet: training finished", http.StatusGone)
	default:
		w.WriteHeader(status)
	}
}

func (s *Server) staleResponse(w http.ResponseWriter, wantRound, current int) {
	w.Header().Set(RoundHeader, strconv.Itoa(current))
	http.Error(w, fmt.Sprintf("flnet: stale round %d, current is %d", wantRound, current),
		http.StatusConflict)
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, never below 1 (a zero would tell clients to hammer immediately).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// quarantineReason decides whether an update is safe to aggregate. A
// single NaN or Inf parameter — readily produced by IEEE-754 exponent-bit
// flips on a BSC uplink (see internal/channel.BitErrorFloat32) — would
// propagate through the mean into every future global model, so such
// updates are refused outright, as are updates whose energy exploded past
// maxNorm (0 disables the norm gate). The returned reason is a stats key
// (QuarantineNonFinite, QuarantineNormBound; "" for a clean update); the
// detail names the offending index and value so a quarantined client's
// 422 body is actionable.
//
// The scan is tensor.AllFinite, an exponent-bit test per parameter, in
// AVX where the CPU has it; the loop that names the first non-finite
// index runs only when that finds one. The float64 norm chain runs only
// under a norm gate, and the peak search only for a refusal, so neither
// is paid by a clean update without one.
func quarantineReason(flat []float32, maxNorm float64) (reason, detail string) {
	if !tensor.AllFinite(flat) {
		for i, v := range flat {
			if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
				return QuarantineNonFinite, fmt.Sprintf("non-finite parameter %v at index %d", v, i)
			}
		}
	}
	if maxNorm > 0 {
		var sum float64
		for _, v := range flat {
			f := float64(v)
			sum += float64(f * f)
		}
		if norm := math.Sqrt(sum); norm > maxNorm {
			peakIdx, peakAbs := -1, 0.0
			for i, v := range flat {
				if a := math.Abs(float64(v)); a > peakAbs {
					peakIdx, peakAbs = i, a
				}
			}
			return QuarantineNormBound, fmt.Sprintf(
				"L2 norm %.4g exceeds limit %g (largest parameter %.4g at index %d)",
				norm, maxNorm, peakAbs, peakIdx)
		}
	}
	return "", ""
}
