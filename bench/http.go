package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/flnet"
	"fhdnn/internal/hdc"
)

// httpSpec sizes one of the three HTTP workloads. Every one of them drives
// an in-process flnet.Server behind net/http on a loopback listener — not a
// real link — in a closed loop: conns keep-alive connections, one generator
// goroutine each, the next request sent only when the previous reply has
// been read. A round is a barrier (MinUpdates = clean clients per round),
// which is how a synchronous federation loads its server.
type httpSpec struct {
	name       string
	classes    int
	dim        int
	clients    int    // request slots per round, injected ones included
	aggregator string // fedcore.ParseAggregator spec
	// fleet runs the whole protocol through flnet.Client (FetchModel then
	// PushUpdate, codecs cycling by slot) and injects two non-finite
	// updates, one corrupted envelope and one duplicate per round; the
	// ingest workloads POST pre-encoded raw envelopes with a plain
	// http.Client.
	fleet     bool
	pool      int     // distinct update vectors made from the seed
	warmup    int     // untimed rounds, counted in setup_s
	rounds    int     // timed rounds; 0 runs whole rounds for -seconds (toy sizes fix the count)
	setupReps int     // set-ups per run; setup_s is their median
	tailPct   float64 // percentile op_tail_ms must reach; 0 accepts what pickTail allows
}

// Slots of a fleet round that do not send one clean update. They sit at the
// head of the round's fixed order, and the round joins its generators after
// them, so it always closes on a clean upload.
const (
	slotNonFiniteA = 2
	slotNonFiniteB = 5
	slotChecksum   = 7
	slotResend     = 9
)

type slotKind int

const (
	kindClean slotKind = iota
	kindNonFinite
	kindChecksum
	kindResend // a clean client that sends its accepted update twice
)

func (s httpSpec) kind(slot int) slotKind {
	if !s.fleet {
		return kindClean
	}
	switch slot {
	case slotNonFiniteA, slotNonFiniteB:
		return kindNonFinite
	case slotChecksum:
		return kindChecksum
	case slotResend:
		return kindResend
	}
	return kindClean
}

// clean is the number of updates a round aggregates, and so MinUpdates.
func (s httpSpec) clean() int {
	if s.fleet {
		return s.clients - 3
	}
	return s.clients
}

// uploadsPerRound counts every POST of a round, refused and repeated ones
// included.
func (s httpSpec) uploadsPerRound() int {
	if s.fleet {
		return s.clients + 1
	}
	return s.clients
}

// fleetCodecs is the codec cycle of fleet_mixed_median, by slot.
var fleetCodecs = []string{"raw", "float16", "int8", "topk:0.1"}

// countingTransport sums the body bytes of every POST the generator sends,
// so wire bytes are checked against what left the client, not against what
// the server says it read.
type countingTransport struct {
	base   http.RoundTripper
	posted atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		t.posted.Add(r.ContentLength)
	}
	return t.base.RoundTrip(r)
}

// httpEnv is one set-up: inputs, a running server and the generator's
// connections.
type httpEnv struct {
	spec  httpSpec
	conns int
	n     int // classes*dim

	srv    *flnet.Server
	hs     *http.Server
	served chan error
	ct     *countingTransport
	hc     *http.Client
	base   string

	vectors [][]float32 // seeded pool; fleet vectors alias models[i].Flat()
	bodies  [][]byte    // ingest: one pre-encoded raw envelope per vector
	ids     []string    // X-FHDnn-Client value per slot

	models   []*hdc.Model     // fleet: one per vector
	clients  []*flnet.Client  // fleet: one per slot
	codecs   []compress.Codec // fleet: per slot
	nanModel *hdc.Model
	corrupt  []byte // fleet: an envelope with one payload byte flipped

	rounds int // rounds the server has committed so far
}

// vecIndex fixes which pool vector a slot sends in a round. Consecutive
// slots take consecutive vectors, so a fleet round (clients <= pool) never
// repeats a row.
func (e *httpEnv) vecIndex(round, slot int) int {
	return (round*17 + slot) % len(e.vectors)
}

func setupHTTP(spec httpSpec, seed int64, conns int) (*httpEnv, error) {
	e := &httpEnv{spec: spec, conns: conns, n: spec.classes * spec.dim}
	rng := rand.New(rand.NewSource(seed))
	e.vectors = make([][]float32, spec.pool)
	e.ids = make([]string, spec.clients)
	for i := range e.ids {
		e.ids[i] = "c" + strconv.Itoa(i)
	}
	if spec.fleet {
		if spec.clients > spec.pool {
			return nil, fmt.Errorf("%s: %d clients need a pool of at least as many vectors, have %d", spec.name, spec.clients, spec.pool)
		}
		e.models = make([]*hdc.Model, spec.pool)
		for i := range e.models {
			e.models[i] = hdc.NewModel(spec.classes, spec.dim)
			v := e.models[i].Flat()
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			e.vectors[i] = v
		}
		e.nanModel = e.models[0].Clone()
		e.nanModel.Flat()[e.n/2] = float32(math.NaN())
	} else {
		// Integer-valued entries in [-8, 8]: float64 sums of them are exact,
		// so the committed mean is bit-identical in any arrival order and
		// for any shard count.
		e.bodies = make([][]byte, spec.pool)
		for i := range e.vectors {
			v := make([]float32, e.n)
			for j := range v {
				v[j] = float32(rng.Intn(17) - 8)
			}
			e.vectors[i] = v
			body, err := fedcore.EncodeEnvelope(compress.Raw{}, v)
			if err != nil {
				return nil, err
			}
			e.bodies[i] = body
		}
	}
	if spec.fleet {
		e.codecs = make([]compress.Codec, spec.clients)
		for slot := range e.codecs {
			name := fleetCodecs[slot%len(fleetCodecs)]
			if spec.kind(slot) == kindNonFinite {
				name = "raw" // the only codec that carries a NaN through unchanged
			}
			codec, err := fedcore.ParseCodec(name)
			if err != nil {
				return nil, err
			}
			e.codecs[slot] = codec
		}
		corrupt, err := fedcore.EncodeEnvelope(e.codecs[slotChecksum], e.vectors[0])
		if err != nil {
			return nil, err
		}
		corrupt[fedcore.EnvelopeOverhead+len(corrupt[fedcore.EnvelopeOverhead:])/2] ^= 0x10
		e.corrupt = corrupt
	}

	agg, err := fedcore.ParseAggregator(spec.aggregator)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	// Everything else stays at its zero value — Shards and ShardQueue in
	// particular — so a later change of a default reads as a gain or a
	// loss here instead of being masked.
	e.srv, err = flnet.NewServer(flnet.ServerConfig{
		NumClasses: spec.classes,
		Dim:        spec.dim,
		MinUpdates: spec.clean(),
		Aggregator: agg,
	})
	if err != nil {
		_ = ln.Close() // the configuration error is the one to report
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	//fhdnn:allow goroutine HTTP serve loop of the in-process target; close() shuts it down and waits for it on served
	go func() { e.served <- e.hs.Serve(ln) }()

	e.ct = &countingTransport{base: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
	}}
	e.hc = &http.Client{Transport: e.ct}
	if spec.fleet {
		e.clients = make([]*flnet.Client, spec.clients)
		for slot := range e.clients {
			e.clients[slot] = &flnet.Client{BaseURL: e.base, ID: e.ids[slot], HTTPClient: e.hc, Codec: e.codecs[slot]}
		}
	}

	warm := e.runPhase(spec.warmup, 0, nil)
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("%s: warm-up: %d of %d operations failed: %s", spec.name, warm.failed, warm.attempted, strings.Join(warm.errs, "; "))
	}
	return e, nil
}

// close stops the server and the generator's connections and waits for the
// serve loop to end.
func (e *httpEnv) close() {
	// Every generator has been joined, so no request is in flight and the
	// connections can simply be cut. (Shutdown would grant a connection the
	// transport dialled and never used the server's five-second grace.)
	e.hc.CloseIdleConnections()
	_ = e.hs.Close() // the listener's close error changes nothing here
	<-e.served
	_ = e.srv.Shutdown(context.Background()) // fails only on an expired context
}

// opSpan is a loopback span before it is given its place in the trace.
type opSpan struct {
	name       string
	start, end time.Time
	op         int
}

// genRec is what one generator goroutine saw during one round.
type genRec struct {
	uploads   []time.Duration // accepted first-time uploads: POST sent -> reply read
	fetches   []time.Duration
	attempted int
	failed    int
	errs      []string
	lastEnd   time.Time // when this goroutine's last accepted upload completed, and how long it took
	lastDur   time.Duration
	trace     bool
	spans     []opSpan
}

func (g *genRec) expect(ok bool, format string, args ...any) {
	g.attempted++
	if ok {
		return
	}
	g.failed++
	if len(g.errs) < 4 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

func (g *genRec) accepted(start time.Time, d time.Duration, op int) {
	g.uploads = append(g.uploads, d)
	g.lastEnd, g.lastDur = start.Add(d), d
	if g.trace {
		g.spans = append(g.spans, opSpan{"op.upload", start, start.Add(d), op})
	}
}

// post sends one pre-built body and reads the whole reply.
func (e *httpEnv) post(round int, id string, body []byte) (status int, msg string, start time.Time, d time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, e.base+"/v1/update?round="+strconv.Itoa(round), bytes.NewReader(body))
	if err != nil {
		return 0, "", start, 0, err
	}
	req.Header.Set("Content-Type", flnet.EnvelopeContentType)
	req.Header.Set(flnet.ClientHeader, id)
	start = time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, "", start, 0, err
	}
	text, err := io.ReadAll(io.LimitReader(resp.Body, 512))
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, string(text), start, time.Since(start), err
}

func (e *httpEnv) ingestSlot(round, slot int, g *genRec) {
	status, msg, start, d, err := e.post(round, e.ids[slot], e.bodies[e.vecIndex(round, slot)])
	ok := err == nil && status == http.StatusAccepted
	g.expect(ok, "round %d slot %d: upload: status %d %q err %v, want 202", round, slot, status, msg, err)
	if ok {
		g.accepted(start, d, round*e.spec.clients+slot)
	}
}

func (e *httpEnv) fleetSlot(round, slot int, g *genRec) {
	kind := e.spec.kind(slot)
	op := round*e.spec.clients + slot
	if kind == kindChecksum {
		status, msg, _, _, err := e.post(round, e.ids[slot], e.corrupt)
		g.expect(err == nil && status == http.StatusUnprocessableEntity && strings.Contains(msg, "checksum"),
			"round %d slot %d: corrupted envelope: status %d %q err %v, want 422 checksum", round, slot, status, msg, err)
		return
	}
	ctx := context.Background()
	cl := e.clients[slot]

	start := time.Now()
	_, got, err := cl.FetchModel(ctx)
	d := time.Since(start)
	ok := err == nil && got == round
	g.expect(ok, "round %d slot %d: fetch: round %d err %v", round, slot, got, err)
	if ok {
		g.fetches = append(g.fetches, d)
		if g.trace {
			g.spans = append(g.spans, opSpan{"op.fetch", start, start.Add(d), op})
		}
	}

	model := e.models[e.vecIndex(round, slot)]
	if kind == kindNonFinite {
		model = e.nanModel
	}
	start = time.Now()
	err = cl.PushUpdate(ctx, round, model)
	d = time.Since(start)
	if kind == kindNonFinite {
		var q flnet.ErrQuarantined
		g.expect(errors.As(err, &q) && strings.Contains(q.Reason, "non-finite"),
			"round %d slot %d: non-finite update: err %v, want 422 non-finite", round, slot, err)
		return
	}
	g.expect(err == nil, "round %d slot %d: push: %v", round, slot, err)
	if err == nil {
		g.accepted(start, d, op)
	}
	if kind == kindResend {
		err = cl.PushUpdate(ctx, round, model)
		g.expect(err == nil, "round %d slot %d: repeated push: %v, want 202", round, slot, err)
	}
}

// phase is the generator's record of a run of whole rounds.
type phase struct {
	rounds    int
	wall      time.Duration // sum of the rounds' wall times
	uploads   []time.Duration
	fetches   []time.Duration
	closes    []time.Duration // per round: latency of the upload that completed last
	attempted int
	failed    int
	errs      []string
	mem       [2]runtime.MemStats
	received  int64 // server BytesReceived delta
	sent      int64 // POST body bytes delta
	// A traced phase records spans in every second round only, so traced
	// and untraced rounds see the same heap, caches and machine weather.
	tracedRounds int
	tracedWall   time.Duration
}

func (p *phase) accepted(spec httpSpec) int { return p.rounds * spec.clean() }

func (p *phase) uploadsAttempted(spec httpSpec) int { return p.rounds * spec.uploadsPerRound() }

// runPhase drives whole rounds: exactly `rounds` of them when rounds > 0,
// otherwise as many as start within `seconds` (at least one; at least two
// when tracing). With tr set, every second round records spans into it.
func (e *httpEnv) runPhase(rounds int, seconds float64, tr *tracer) *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.mem[0])
	received0, sent0 := e.srv.Stats().BytesReceived, e.ct.posted.Load()
	limit := time.Duration(seconds * float64(time.Second))
	least := 1
	if tr != nil {
		least = 2
	}
	begin := time.Now()
	for (rounds > 0 && p.rounds < rounds) || (rounds == 0 && (p.rounds < least || time.Since(begin) < limit)) {
		if tr != nil && p.rounds%2 == 1 {
			wall := p.wall
			e.runRound(p, tr)
			p.tracedRounds++
			p.tracedWall += p.wall - wall
		} else {
			e.runRound(p, nil)
		}
	}
	runtime.ReadMemStats(&p.mem[1])
	p.received = e.srv.Stats().BytesReceived - received0
	p.sent = e.ct.posted.Load() - sent0
	return p
}

// runRound sends one round through conns generator goroutines and joins
// them. No goroutine or connection exists beyond conns.
func (e *httpEnv) runRound(p *phase, tr *tracer) {
	round := e.rounds + 1
	recs := make([]genRec, e.conns)
	for i := range recs {
		recs[i].trace = tr != nil
	}
	// A fleet round joins its generators once after the injected slots, so
	// a generator that stalls on one of them cannot be overtaken by the
	// whole rest of the round and find it closed.
	stages := []int{e.spec.clients}
	if e.spec.fleet {
		stages = []int{slotResend + 1, e.spec.clients}
	}
	var next atomic.Int64
	begin := time.Now()
	for _, bound := range stages {
		var wg sync.WaitGroup
		for i := range recs {
			wg.Add(1)
			//fhdnn:allow goroutine closed-loop generator: one goroutine per keep-alive connection, joined through wg before the stage returns
			go func(g *genRec) {
				defer wg.Done()
				for {
					slot := int(next.Add(1)) - 1
					if slot >= bound {
						return
					}
					if e.spec.fleet {
						e.fleetSlot(round, slot, g)
					} else {
						e.ingestSlot(round, slot, g)
					}
				}
			}(&recs[i])
		}
		wg.Wait()
		next.Store(int64(bound))
	}
	end := time.Now()
	e.rounds++
	p.rounds++
	p.wall += end.Sub(begin)

	parent := -1
	if tr != nil {
		parent = tr.add("op.round", begin, end, -1, round)
	}
	var lastEnd time.Time
	var closing time.Duration
	for i := range recs {
		g := &recs[i]
		p.uploads = append(p.uploads, g.uploads...)
		p.fetches = append(p.fetches, g.fetches...)
		p.attempted += g.attempted
		p.failed += g.failed
		if len(p.errs) < 4 {
			p.errs = append(p.errs, g.errs...)
		}
		if g.lastEnd.After(lastEnd) {
			lastEnd, closing = g.lastEnd, g.lastDur
		}
		for _, s := range g.spans {
			tr.add(s.name, s.start, s.end, parent, s.op)
		}
	}
	p.closes = append(p.closes, closing)
}

// cleanRows returns the rows the server must have aggregated in a round:
// what each clean slot sent, after its codec's round trip.
func (e *httpEnv) cleanRows(round int) ([][]float32, error) {
	rows := make([][]float32, 0, e.spec.clean())
	for slot := 0; slot < e.spec.clients; slot++ {
		if k := e.spec.kind(slot); k != kindClean && k != kindResend {
			continue
		}
		v := e.vectors[e.vecIndex(round, slot)]
		if e.spec.fleet {
			got, _, err := compress.RoundTrip(e.codecs[slot], v)
			if err != nil {
				return nil, fmt.Errorf("round trip slot %d: %w", slot, err)
			}
			v = got
		}
		rows = append(rows, v)
	}
	return rows, nil
}

// wantStats is what the server's counters must read after `rounds` rounds.
type wantStats struct {
	round      int
	accepted   int64
	nonFinite  int64
	checksum   int64
	duplicates int64
	received   int64
}

func (e *httpEnv) wantStats() wantStats {
	w := wantStats{
		round:    e.rounds + 1,
		accepted: int64(e.rounds * e.spec.clean()),
		received: e.ct.posted.Load(),
	}
	if e.spec.fleet {
		w.nonFinite = int64(2 * e.rounds)
		w.checksum = int64(e.rounds)
		w.duplicates = int64(e.rounds)
	}
	return w
}

// verifyStats holds a stats snapshot against the counts the generator
// injected: nothing throttled, timed out, partial, stale or sent in the
// legacy framing; quarantines and duplicates exactly as sent.
func verifyStats(c *checker, st flnet.Stats, w wantStats) {
	var stale int64
	for _, sh := range st.PerShard {
		stale += sh.Stale
	}
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"round", int64(st.Round), int64(w.round)},
		{"accepted", st.UpdatesAccepted, w.accepted},
		{"quarantined", st.UpdatesQuarantined, w.nonFinite + w.checksum},
		{"quarantined_nonfinite", st.QuarantinedByReason[flnet.QuarantineNonFinite], w.nonFinite},
		{"quarantined_checksum", st.QuarantinedByReason[flnet.QuarantineChecksum], w.checksum},
		{"duplicates", st.DuplicateUpdates, w.duplicates},
		{"throttled", st.UpdatesThrottled, 0},
		{"shard_timeouts", st.ShardTimeouts, 0},
		{"partial_commits", st.PartialCommits, 0},
		{"stale", stale, 0},
		{"rejected", st.UpdatesRejected, 0},
		{"forced_by_deadline", st.RoundsForcedByDeadline, 0},
		{"dead_shards", int64(st.DeadShards), 0},
		{"legacy_framing", st.UpdatesByCodec["legacy"], 0},
		{"bytes_received", st.BytesReceived, w.received},
	} {
		if f.got != f.want {
			c.failf("server-stats", "%s = %d, want %d", f.name, f.got, f.want)
		}
	}
}

// verifyModel requires the committed model to equal the reference bit for
// bit.
func verifyModel(c *checker, got, want []float32) {
	if len(got) != len(want) {
		c.failf("committed-model", "%d parameters, want %d", len(got), len(want))
		return
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			c.failf("committed-model", "parameter %d is %v (%#08x), reference %v (%#08x)",
				i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			return
		}
	}
}

// verify checks the server's outputs after the last round against the
// benchmark's own reference and expected counts.
func (e *httpEnv) verify(c *checker) {
	verifyStats(c, e.srv.Stats(), e.wantStats())
	rows, err := e.cleanRows(e.rounds)
	if err != nil {
		c.failf("committed-model", "%v", err)
		return
	}
	want := refMean(rows)
	if e.spec.aggregator == "median" {
		want = refMedian(rows)
	}
	model, _ := e.srv.Model()
	verifyModel(c, model.Flat(), want)
}

// checkPhase holds a timed phase against what the generator expected of
// itself.
func (e *httpEnv) checkPhase(c *checker, p *phase) {
	if p.failed > 0 {
		c.failf("operations", "%d of %d failed: %s", p.failed, p.attempted, strings.Join(p.errs, "; "))
	}
	if p.received != p.sent {
		c.failf("wire-bytes", "server read %d body bytes, generator sent %d", p.received, p.sent)
	}
	if got, want := len(p.uploads), p.accepted(e.spec); got != want {
		c.failf("operations", "%d accepted uploads timed, want %d", got, want)
	}
}

// runHTTP is one run of an HTTP workload: set up (setupReps times, keeping
// the last), measure, verify.
func runHTTP(spec httpSpec, opt options) (*outcome, *checker) {
	c := &checker{}
	o := &outcome{workload: spec.name, values: map[string]float64{}, info: map[string]any{}}
	reps := spec.setupReps
	if opt.traced {
		reps = 1
	}
	var env *httpEnv
	var setups []float64
	for i := 0; i < reps; i++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		begin := time.Now()
		var err error
		if env, err = setupHTTP(spec, opt.seed, opt.conns); err != nil {
			c.failf("setup", "%v", err)
			return o, c
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer env.close()
	runtime.GC()
	o.info["load"] = fmt.Sprintf("closed loop over loopback (not a real link), %d keep-alive connections, %d request slots per round", opt.conns, spec.clients)

	if opt.traced {
		env.traced(o, c, opt)
		return o, c
	}

	p := env.runPhase(spec.rounds, opt.seconds, nil)
	rss := peakRSSMB()
	env.checkPhase(c, p)
	env.verify(c)

	sorted := sortDurations(p.uploads)
	tail := pickTail(len(sorted))
	if spec.tailPct > 0 && tail != spec.tailPct {
		c.failf("tail-samples", "%d upload samples leave fewer than %d beyond p%g", len(sorted), minBeyond, spec.tailPct)
	}
	o.attempted, o.failed = p.attempted, p.failed
	o.values["setup_s"] = medianFloat(setups)
	o.values["updates_per_s"] = float64(p.accepted(spec)) / p.wall.Seconds()
	o.values["op_p50_ms"] = ms(percentile(sorted, 50))
	o.values["op_tail_ms"] = ms(percentile(sorted, tail))
	o.values["wire_bytes_per_update"] = float64(p.received) / float64(p.uploadsAttempted(spec))
	o.values["allocs_per_update"] = float64(p.mem[1].Mallocs-p.mem[0].Mallocs) / float64(p.uploadsAttempted(spec))
	o.values["peak_rss_mb"] = rss
	o.info["op"] = "one accepted upload, POST sent to reply read"
	o.info["op_samples"] = len(sorted)
	o.info["op_tail_percentile"] = tail
	o.info["rounds"] = p.rounds
	o.info["timed_wall_s"] = p.wall.Seconds()
	o.info["setup_s_samples"] = setups
	return o, c
}
