package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/flnet"
)

// replayOps is how many of the workload's first operations the traced run
// replays in memory, layer by layer.
const replayOps = 256

// codecKeys are the per-codec metric suffixes, in wire-id order.
var codecKeys = []string{"raw", "float16", "int8", "topk"}

// replayOp is one upload of the workload, with the bytes it puts on the
// wire.
type replayOp struct {
	id    int // round*clients + slot
	round int
	slot  int
	kind  slotKind
	codec compress.Codec
	key   string // codec metric suffix
	vec   []float32
	body  []byte // envelope as sent
}

func (op replayOp) clean() bool { return op.kind == kindClean || op.kind == kindResend }

// handlerTransport answers requests by calling the handler on the caller's
// goroutine: flnet.Client in memory, with no socket in between.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// replayServer is a fresh server configured exactly as the workload's.
func (e *httpEnv) replayServer() (*flnet.Server, error) {
	agg, err := fedcore.ParseAggregator(e.spec.aggregator)
	if err != nil {
		return nil, err
	}
	return flnet.NewServer(flnet.ServerConfig{
		NumClasses: e.spec.classes,
		Dim:        e.spec.dim,
		MinUpdates: e.spec.clean(),
		Aggregator: agg,
	})
}

func (e *httpEnv) updateRequest(op replayOp) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v1/update?round="+strconv.Itoa(op.round), bytes.NewReader(op.body))
	req.Header.Set("Content-Type", flnet.EnvelopeContentType)
	req.Header.Set(flnet.ClientHeader, e.ids[op.slot])
	return req
}

// traced is the traced run: half of -seconds over loopback with spans
// recorded in every second round (traced against untraced rounds is the
// tracing overhead), then the in-memory replay that gives the per-layer
// numbers.
func (e *httpEnv) traced(o *outcome, c *checker, opt options) {
	tr := newTracer()
	p := e.runPhase(2*e.spec.rounds, opt.seconds/2, tr)
	loopSpans := len(tr.spans)
	e.checkPhase(c, p)
	e.verify(c)

	v := o.values
	spec := e.spec
	o.attempted, o.failed = p.attempted, p.failed
	tracedRate := float64(p.tracedRounds) / p.tracedWall.Seconds()
	plainRate := float64(p.rounds-p.tracedRounds) / (p.wall - p.tracedWall).Seconds()
	v["trace.overhead_share"] = 1 - tracedRate/plainRate
	v["runtime.gc_cycles"] = float64(p.mem[1].NumGC - p.mem[0].NumGC)
	v["runtime.gc_pause_total_ms"] = float64(p.mem[1].PauseTotalNs-p.mem[0].PauseTotalNs) / 1e6
	v["runtime.heap_alloc_mb_per_s"] = float64(p.mem[1].TotalAlloc-p.mem[0].TotalAlloc) / 1e6 / p.wall.Seconds()

	uploads := sortDurations(p.uploads)
	v["flnet.upload_p999_ms"] = ms(percentile(uploads, 99.9))
	v["flnet.upload_max_ms"] = ms(percentile(uploads, 100))
	v["flnet.round_close_ms"] = ms(medianDuration(p.closes))
	if spec.fleet {
		v["flnet.fetch_p50_ms"] = ms(medianDuration(p.fetches))
	}

	st := e.srv.Stats()
	var stale int64
	for _, sh := range st.PerShard {
		stale += sh.Stale
	}
	v["flnet.accepted"] = float64(st.UpdatesAccepted)
	v["flnet.quarantined_nonfinite"] = float64(st.QuarantinedByReason[flnet.QuarantineNonFinite])
	v["flnet.quarantined_checksum"] = float64(st.QuarantinedByReason[flnet.QuarantineChecksum])
	v["flnet.duplicates"] = float64(st.DuplicateUpdates)
	v["flnet.throttled"] = float64(st.UpdatesThrottled)
	v["flnet.shard_timeouts"] = float64(st.ShardTimeouts)
	v["flnet.partial_commits"] = float64(st.PartialCommits)
	v["flnet.stale"] = float64(stale)

	e.replay(tr, o, c, ns(percentile(uploads, 50)))
	v["trace.spans"] = float64(len(tr.spans))
	o.spans = tr.spans
	o.info["loopback_spans"] = loopSpans
	o.info["op_samples"] = len(uploads)
	o.notApplicable = []string{"core.", "hdc.", "fl.", "dataset.", "fedcore.engine_self_ns"}
	if !spec.fleet {
		o.notApplicable = append(o.notApplicable,
			"flnet.fetch_p50_ms", "flnet.reject_", "flnet.model_fetch_", "flnet.client_push_self_ns",
			".float16", ".int8", ".topk")
	}
}

// replay pushes the workload's first replayOps uploads through each
// layer's exported functions in memory, on this goroutine, with the bytes
// the loopback phase sent. A pass's spans name as parent the enclosing call
// on the same bytes. pushP50 is the loopback median of one upload call, in
// ns.
func (e *httpEnv) replay(tr *tracer, o *outcome, c *checker, pushP50 float64) {
	spec, v := e.spec, o.values
	ops := make([]replayOp, replayOps)
	opIDs := make([]int, len(ops))
	for i := range ops {
		round, slot := 1+i/spec.clients, i%spec.clients
		op := replayOp{id: round*spec.clients + slot, round: round, slot: slot, kind: spec.kind(slot),
			codec: compress.Raw{}, key: "raw", vec: e.vectors[e.vecIndex(round, slot)]}
		if spec.fleet {
			op.codec = e.codecs[slot]
			id, _ := fedcore.CodecIDOf(op.codec)
			op.key = fedcore.CodecName(id)
			if op.kind == kindNonFinite {
				op.vec = e.nanModel.Flat()
			}
		}
		ops[i], opIDs[i] = op, op.id
	}
	// The clean uploads, overall and by codec, as positions in ops.
	var clean []int
	byCodec := map[string][]int{}
	for i, op := range ops {
		if op.clean() {
			byCodec[op.key] = append(byCodec[op.key], len(clean))
			clean = append(clean, i)
		}
	}
	pick := func(all, idx []int) []int {
		out := make([]int, len(idx))
		for k, i := range idx {
			out[k] = all[i]
		}
		return out
	}
	cleanIDs := pick(opIDs, clean)

	// fedcore.EncodeEnvelope, and the Codec.Encode inside it.
	payloads := make([][]byte, len(ops))
	enc := timeCalls(len(ops),
		func(i int) {
			body, err := fedcore.EncodeEnvelope(ops[i].codec, ops[i].vec)
			if err != nil {
				c.failf("replay", "encode envelope of op %d: %v", ops[i].id, err)
			}
			ops[i].body = body
		},
		func(i int) { payloads[i] = ops[i].codec.Encode(ops[i].vec) })
	envEnc, codecEnc := enc[0], enc[1].only(clean)
	envEncSpans := tr.addSpans("fedcore.EncodeEnvelope", envEnc, nil, opIDs)
	codecEncSpans := tr.addSpans("compress.Encode", codecEnc, pick(envEncSpans, clean), cleanIDs)
	v["fedcore.envelope_encode_ns"] = envEnc.medianNs()
	for i := range ops {
		if ops[i].kind == kindChecksum {
			ops[i].body = e.corrupt
		}
		if !spec.fleet && !bytes.Equal(ops[i].body, e.bodies[e.vecIndex(ops[i].round, ops[i].slot)]) {
			c.failf("replay", "op %d: replayed envelope differs from the bytes sent over loopback", ops[i].id)
		}
	}

	// flnet: Server.Handler().ServeHTTP on a fresh server, in workload
	// order so rounds close where they did over loopback.
	srv, err := e.replayServer()
	if err != nil {
		c.failf("replay", "%v", err)
		return
	}
	handler := srv.Handler()
	reqs := make([]*http.Request, len(ops))
	recs := make([]*httptest.ResponseRecorder, len(ops))
	for i, op := range ops {
		reqs[i], recs[i] = e.updateRequest(op), httptest.NewRecorder()
	}
	served := timeCalls(len(ops), func(i int) { handler.ServeHTTP(recs[i], reqs[i]) })[0]
	servedSpans := tr.addSpans("flnet.ServeHTTP", served, nil, opIDs)
	var nonFinite, checksum []int
	for i, op := range ops {
		want := http.StatusAccepted
		switch op.kind {
		case kindNonFinite:
			want, nonFinite = http.StatusUnprocessableEntity, append(nonFinite, i)
		case kindChecksum:
			want, checksum = http.StatusUnprocessableEntity, append(checksum, i)
		}
		if recs[i].Code != want {
			c.failf("replay", "op %d: handler answered %d, want %d", op.id, recs[i].Code, want)
		}
	}
	accepted := served.only(clean)
	handlerNs := accepted.medianNs()
	v["flnet.handler_ns"] = handlerNs
	v["flnet.handler_allocs"] = accepted.allocsPerCall()
	v["flnet.handler_alloc_bytes"] = accepted.bytesPerCall()

	inMemoryNs := handlerNs // the loopback op, in memory: the handler, or the whole PushUpdate for the fleet
	if spec.fleet {
		v["flnet.reject_nonfinite_ns"] = served.only(nonFinite).medianNs()
		v["flnet.reject_checksum_ns"] = served.only(checksum).medianNs()

		const fetches = 64
		fetchReqs := make([]*http.Request, fetches)
		fetchRecs := make([]*httptest.ResponseRecorder, fetches)
		for i := range fetchReqs {
			fetchReqs[i], fetchRecs[i] = httptest.NewRequest(http.MethodGet, "/v1/model", nil), httptest.NewRecorder()
		}
		fetched := timeCalls(fetches, func(i int) { handler.ServeHTTP(fetchRecs[i], fetchReqs[i]) })[0]
		tr.addSpans("flnet.ServeHTTP.model", fetched, nil, make([]int, fetches))
		v["flnet.model_fetch_ns"] = fetched.medianNs()
		v["flnet.model_fetch_allocs"] = fetched.allocsPerCall()
		v["flnet.model_fetch_alloc_bytes"] = fetched.bytesPerCall()

		// Client.PushUpdate in memory: what the client adds around
		// EncodeEnvelope and the handler.
		pushSrv, err := e.replayServer()
		if err != nil {
			c.failf("replay", "%v", err)
			return
		}
		ctx := context.Background()
		hc := &http.Client{Transport: handlerTransport{pushSrv.Handler()}}
		clients := make([]*flnet.Client, spec.clients)
		for slot := range clients {
			clients[slot] = &flnet.Client{BaseURL: "http://replay", ID: e.ids[slot], HTTPClient: hc, Codec: e.codecs[slot]}
			if _, _, err := clients[slot].FetchModel(ctx); err != nil { // learns the advertised codecs
				c.failf("replay", "in-memory fetch: %v", err)
			}
		}
		var pushOps, cleanPush []int // positions in ops, and of the clean ones within pushOps
		for i, op := range ops {
			if op.kind == kindChecksum {
				continue
			}
			if op.clean() {
				cleanPush = append(cleanPush, len(pushOps))
			}
			pushOps = append(pushOps, i)
		}
		pushed := timeCalls(len(pushOps), func(k int) {
			op := ops[pushOps[k]]
			model := e.models[e.vecIndex(op.round, op.slot)]
			if op.kind == kindNonFinite {
				model = e.nanModel
			}
			err := clients[op.slot].PushUpdate(ctx, op.round, model)
			if (err == nil) != op.clean() {
				c.failf("replay", "op %d: in-memory push: %v", op.id, err)
			}
		})[0]
		tr.addSpans("flnet.Client.PushUpdate", pushed, nil, pick(opIDs, pushOps))
		inMemoryNs = pushed.only(cleanPush).medianNs()
		// The codecs' encode times differ by two orders of magnitude, so
		// medians of the mix do not subtract; take each push's own encode
		// and handler time out of it and report the median remainder.
		self := make([]float64, len(cleanPush))
		for j, k := range cleanPush {
			i := pushOps[k]
			self[j] = selfTime(ns(pushed.durs[k]), ns(envEnc.durs[i]), ns(served.durs[i]))
		}
		v["flnet.client_push_self_ns"] = medianFloat(self)
		_ = pushSrv.Shutdown(ctx) // fails only on an expired context
	}
	// What the socket adds: the loopback median of the call minus the same
	// call in memory.
	v["flnet.http_overhead_ns"] = selfTime(pushP50, inMemoryNs)
	_ = srv.Shutdown(context.Background()) // fails only on an expired context

	// fedcore.DecodeEnvelope on the bytes the handler read, and the
	// Codec.Decode inside it. Outputs stay referenced for the length of the
	// pass, so both calls leave the collector the same work.
	decoded := make([][]float32, len(clean))
	inner := make([][]float32, len(clean))
	dec := timeCalls(len(clean),
		func(k int) {
			var err error
			if decoded[k], _, err = fedcore.DecodeEnvelope(ops[clean[k]].body, e.n); err != nil {
				c.failf("replay", "decode envelope of op %d: %v", ops[clean[k]].id, err)
			}
		},
		func(k int) {
			var err error
			if inner[k], err = ops[clean[k]].codec.Decode(payloads[clean[k]], e.n); err != nil {
				c.failf("replay", "%s decode of op %d: %v", ops[clean[k]].key, ops[clean[k]].id, err)
			}
		})
	envDec, codecDec := dec[0], dec[1]
	envDecSpans := tr.addSpans("fedcore.DecodeEnvelope", envDec, pick(servedSpans, clean), cleanIDs)
	codecDecSpans := tr.addSpans("compress.Decode", codecDec, envDecSpans, cleanIDs)
	envDecNs := envDec.medianNs()
	v["fedcore.envelope_decode_ns"] = envDecNs
	v["fedcore.envelope_decode_allocs"] = envDec.allocsPerCall()
	v["fedcore.envelope_decode_alloc_bytes"] = envDec.bytesPerCall()
	v["fedcore.envelope_self_ns"] = selfTime(envDecNs, codecDec.medianNs())
	rates := make([]float64, len(clean))
	for k, i := range clean {
		rates[k] = mbPerS(len(ops[i].body), envDec.durs[k])
	}
	v["fedcore.envelope_decode_mb_s"] = medianFloat(rates)

	// compress: the same two passes, read by codec.
	for _, key := range codecKeys {
		idx := byCodec[key] // positions in clean
		if len(idx) == 0 {
			continue
		}
		payload := payloads[clean[idx[0]]]
		for _, k := range idx {
			tr.spans[codecEncSpans[k]].Name = "compress.Encode." + key
			tr.spans[codecDecSpans[k]].Name = "compress.Decode." + key
		}
		decOf := codecDec.only(idx)
		for k, d := range decOf.durs {
			rates[k] = mbPerS(len(payload), d)
		}
		v["compress.encode_ns."+key] = codecEnc.only(idx).medianNs()
		v["compress.decode_ns."+key] = decOf.medianNs()
		v["compress.decode_allocs."+key] = decOf.allocsPerCall()
		v["compress.decode_mb_s."+key] = medianFloat(rates[:len(idx)])
		v["compress.ratio."+key] = float64(4*e.n) / float64(len(payload))
	}

	// fedcore: Aggregator.Add of the decoded rows, then CommitLive at the
	// workload's row count.
	newAgg := func() fedcore.Aggregator {
		a, err := fedcore.ParseAggregator(spec.aggregator)
		if err != nil {
			c.failf("replay", "%v", err)
		}
		return a
	}
	agg := newAgg()
	added := timeCalls(len(clean), func(k int) {
		if agg.Len() == spec.clean() {
			agg.Reset()
		}
		op := ops[clean[k]]
		agg.Add(fedcore.Update{Params: decoded[k], Round: op.round, ClientID: e.ids[op.slot], Samples: 1})
	})[0]
	tr.addSpans("fedcore.Aggregator.Add", added, pick(servedSpans, clean), cleanIDs)
	v["fedcore.add_ns"] = added.medianNs()
	v["fedcore.add_allocs"] = added.allocsPerCall()
	v["flnet.handler_self_ns"] = selfTime(handlerNs, envDecNs, v["fedcore.add_ns"])

	sharded, err := fedcore.NewSharded(1, newAgg)
	if err != nil {
		c.failf("replay", "%v", err)
		return
	}
	for k := 0; k < spec.clean(); k++ {
		sharded.Add(fedcore.Update{Params: decoded[k%len(decoded)], ClientID: strconv.Itoa(k), Samples: 1})
	}
	global := make([]float32, e.n)
	const commits = 5
	committed := timeCalls(commits, func(int) { sharded.CommitLive(global, nil) })[0]
	tr.addSpans("fedcore.ShardedAggregator.CommitLive", committed, nil, make([]int, commits))
	v["fedcore.commit_ns"] = committed.medianNs()
	v["fedcore.commit_allocs"] = committed.allocsPerCall()
}

func mbPerS(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
