package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fhdnn/internal/core"
	"fhdnn/internal/dataset"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/fl"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// trainSpec sizes train_noniid: the device and simulator side of the paper
// — frozen extractor, HD encoding, federated bundling over a Dirichlet
// partition — with no flnet and no codec anywhere in it. It is a fixed job
// rather than a timed one: fl.HDTrainer.Run cannot be stopped from outside,
// and accuracy, rounds to target and bytes to target only compare between
// commits at equal counts.
type trainSpec struct {
	name          string
	imageSize     int
	trainPerClass int
	testPerClass  int
	width         int // extractor channels
	hdDim         int
	classes       int
	clients       int
	alpha         float64 // Dirichlet concentration of the label split
	fraction      float64 // paper C
	epochs        int     // paper E
	rounds        int
	target        float64 // test accuracy the federation must reach
	setupReps     int
	encodeReps    int     // timed encodes of both splits; their median wall counts
	tailPct       float64 // percentile op_tail_ms must reach; 0 accepts what pickTail allows
}

type trainEnv struct {
	spec       trainSpec
	seed       int64
	workers    int
	train      *dataset.Dataset
	test       *dataset.Dataset
	part       dataset.Partition
	model      *core.FHDnn
	generateS  float64
	partitionS float64
}

func setupTrain(spec trainSpec, seed int64, workers int) *trainEnv {
	e := &trainEnv{spec: spec, seed: seed, workers: workers}
	begin := time.Now()
	e.train, e.test = dataset.GenerateImages(dataset.CIFAR10Like(spec.imageSize, spec.trainPerClass, spec.testPerClass, seed))
	e.generateS = time.Since(begin).Seconds()
	begin = time.Now()
	e.part = dataset.PartitionDirichlet(e.train.Labels, spec.clients, spec.alpha, rand.New(rand.NewSource(seed)))
	e.partitionS = time.Since(begin).Seconds()
	extractor := core.NewRandomConvExtractor(seed, 3, spec.width, spec.imageSize)
	e.model = core.New(extractor, core.Config{HDDim: spec.hdDim, NumClasses: spec.classes, Seed: seed, Binarize: true})
	return e
}

func (e *trainEnv) config() fl.Config {
	return fl.Config{
		NumClients:     e.spec.clients,
		ClientFraction: e.spec.fraction,
		LocalEpochs:    e.spec.epochs,
		BatchSize:      10,
		Rounds:         e.spec.rounds,
		Seed:           e.seed,
		Parallel:       e.workers,
	}
}

// federation is one fl.HDTrainer.Run seen from outside.
type federation struct {
	hist   *fl.History
	global *hdc.Model
	wall   time.Duration
	// ends[r] is when round r+1 was over: the first update of the next
	// round leaving its client (the public TamperUpdate hook, left a
	// no-op), or the return of Run for the last round. It trails the true
	// round end by one client's local training, the same amount for every
	// round.
	ends []time.Duration
}

func (f *federation) roundDurations() []time.Duration {
	out := make([]time.Duration, len(f.ends))
	prev := time.Duration(0)
	for i, end := range f.ends {
		out[i], prev = end-prev, end
	}
	return out
}

func (f *federation) participants() int {
	n := 0
	for _, r := range f.hist.Rounds {
		n += r.Participants
	}
	return n
}

func (e *trainEnv) federate(encTrain, encTest *tensor.Tensor) *federation {
	var mu sync.Mutex
	var firsts []time.Time // first hook call of each round
	trainer := &fl.HDTrainer{
		Cfg:        e.config(),
		Encoded:    encTrain,
		Labels:     e.train.Labels,
		TestEnc:    encTest,
		TestLabels: e.test.Labels,
		NumClasses: e.spec.classes,
		Part:       e.part,
		TamperUpdate: func(round, _ int, _, _ []float32) {
			now := time.Now()
			mu.Lock()
			if round > len(firsts) {
				firsts = append(firsts, now)
			}
			mu.Unlock()
		},
	}
	begin := time.Now()
	hist, global := trainer.Run()
	f := &federation{hist: hist, global: global, wall: time.Since(begin)}
	for _, t := range firsts[1:] {
		f.ends = append(f.ends, t.Sub(begin))
	}
	f.ends = append(f.ends, f.wall)
	return f
}

// checkFederation holds a federation's history against what the paper's
// learner must deliver, and returns the 1-based round that reached the
// target (0 if none did) and the uplink bytes spent up to it.
func (e *trainEnv) checkFederation(c *checker, f *federation) (targetRound int, bytesToTarget int64) {
	spec := e.spec
	if len(f.hist.Rounds) != spec.rounds || len(f.ends) != spec.rounds {
		c.failf("train-history", "%d rounds recorded, %d timed, want %d", len(f.hist.Rounds), len(f.ends), spec.rounds)
		return 0, 0
	}
	participants := 0
	for _, r := range f.hist.Rounds {
		if math.IsNaN(r.TestAccuracy) || r.TestAccuracy < 0 || r.TestAccuracy > 1 {
			c.failf("train-accuracy", "round %d accuracy %v outside [0, 1]", r.Round, r.TestAccuracy)
		}
		if targetRound == 0 {
			participants += r.Participants
			bytesToTarget += r.BytesUplinked
			if r.TestAccuracy >= spec.target {
				targetRound = r.Round
			}
		}
	}
	if targetRound == 0 {
		c.failf("train-target", "accuracy %.4f after %d rounds never reached %.2f", f.hist.FinalAccuracy(), spec.rounds, spec.target)
		return 0, 0
	}
	if want := int64(4*spec.classes*spec.hdDim) * int64(participants); bytesToTarget != want {
		c.failf("train-bytes", "%d B uplinked to round %d, want %d B (%d updates of %d float32)",
			bytesToTarget, targetRound, want, participants, spec.classes*spec.hdDim)
	}
	return targetRound, bytesToTarget
}

// runTrain is one run of train_noniid: set up (setupReps times, keeping
// the last), encode both splits, federate, verify.
func runTrain(spec trainSpec, opt options) (*outcome, *checker) {
	c := &checker{}
	o := &outcome{workload: spec.name, values: map[string]float64{}, info: map[string]any{}}
	tensor.SetWorkers(opt.workers)
	reps := spec.setupReps
	if opt.traced {
		reps = 1
	}
	var env *trainEnv
	var setups []float64
	for i := 0; i < reps; i++ {
		env = nil
		runtime.GC()
		begin := time.Now()
		env = setupTrain(spec, opt.seed, opt.workers)
		setups = append(setups, time.Since(begin).Seconds())
	}
	runtime.GC()

	// The first encode of a process pays for faulting in a 200 MB result;
	// repeating it and taking the median wall keeps that one-off out of the
	// per-sample cost. Allocations are counted over the last encode and the
	// federation.
	encodes := spec.encodeReps
	if opt.traced {
		encodes = 1
	}
	var mem [2]runtime.MemStats
	var encTrain, encTest *tensor.Tensor
	var encodeWalls []time.Duration
	for i := 0; i < encodes; i++ {
		encTrain, encTest = nil, nil
		runtime.GC()
		runtime.ReadMemStats(&mem[0])
		begin := time.Now()
		encTrain = env.model.EncodeDataset(env.train)
		encTest = env.model.EncodeDataset(env.test)
		encodeWalls = append(encodeWalls, time.Since(begin))
	}
	encodeWall := medianDuration(encodeWalls)
	fed := env.federate(encTrain, encTest)
	runtime.ReadMemStats(&mem[1])
	rss := peakRSSMB()

	targetRound, bytesToTarget := env.checkFederation(c, fed)
	if !c.ok() {
		return o, c
	}
	updates := fed.participants()
	samples := env.train.Len() + env.test.Len()
	rounds := sortDurations(fed.roundDurations())
	o.attempted, o.failed = updates, 0
	o.info["op"] = "one federated round (local training of the sampled clients, aggregation, evaluation)"
	o.info["op_samples"] = len(rounds)
	o.info["rounds_to_target"] = targetRound
	o.info["final_accuracy"] = fed.hist.FinalAccuracy()
	o.info["encode_samples_per_s"] = float64(samples) / encodeWall.Seconds()
	o.info["rounds_per_s"] = float64(spec.rounds) / fed.wall.Seconds()

	if opt.traced {
		v := o.values
		v["dataset.generate_s"] = env.generateS
		v["dataset.partition_s"] = env.partitionS
		v["fl.encode_samples_per_s"] = float64(samples) / encodeWall.Seconds()
		v["fl.rounds_per_s"] = float64(spec.rounds) / fed.wall.Seconds()
		v["fl.round_p50_ms"] = ms(percentile(rounds, 50))
		v["fl.rounds_to_target"] = float64(targetRound)
		v["fl.time_to_target_s"] = (encodeWall + fed.ends[targetRound-1]).Seconds()
		v["fl.uplink_bytes_to_target"] = float64(bytesToTarget)
		v["fl.final_accuracy"] = fed.hist.FinalAccuracy()
		v["fl.participants_per_round"] = float64(updates) / float64(spec.rounds)
		v["runtime.gc_cycles"] = float64(mem[1].NumGC - mem[0].NumGC)
		v["runtime.gc_pause_total_ms"] = float64(mem[1].PauseTotalNs-mem[0].PauseTotalNs) / 1e6
		v["runtime.heap_alloc_mb_per_s"] = float64(mem[1].TotalAlloc-mem[0].TotalAlloc) / 1e6 / (encodeWall + fed.wall).Seconds()
		env.traced(o, c, encTrain, encTest, fed)
		return o, c
	}

	tail := pickTail(len(rounds))
	if spec.tailPct > 0 && tail != spec.tailPct {
		c.failf("tail-samples", "%d round samples leave fewer than %d beyond p%g", len(rounds), minBeyond, spec.tailPct)
	}
	o.info["op_tail_percentile"] = tail
	o.info["setup_s_samples"] = setups
	o.values["setup_s"] = medianFloat(setups)
	o.values["updates_per_s"] = float64(updates) / (encodeWall + fed.wall).Seconds()
	o.values["op_p50_ms"] = ms(percentile(rounds, 50))
	o.values["op_tail_ms"] = ms(percentile(rounds, tail))
	o.values["wire_bytes_per_update"] = float64(fed.hist.TotalBytes()) / float64(updates)
	o.values["allocs_per_update"] = float64(mem[1].Mallocs-mem[0].Mallocs) / float64(updates)
	o.values["peak_rss_mb"] = rss
	return o, c
}

// workerSpans is what one Engine worker recorded; workers never share one.
type workerSpans struct {
	spans []opSpan
	busy  map[int]time.Duration // round -> time spent training in it
	// ns per call (clone) and per sample of the client's shard (the rest)
	clone, oneshot, refine []float64
}

// spanAgg times an aggregator's Add and Commit from outside.
type spanAgg struct {
	fedcore.Aggregator
	adds    []opSpan
	commits []opSpan
	round   int
}

func (a *spanAgg) Add(u fedcore.Update) {
	start := time.Now()
	a.Aggregator.Add(u)
	//fhdnn:allow hotalloc span recorder of the traced benchmark loop; interface dispatch makes it look reachable from NormClip.Add, but it only ever wraps the Engine's aggregator here
	a.adds = append(a.adds, opSpan{"fedcore.Aggregator.Add", start, time.Now(), u.Round})
	a.round = u.Round
}

func (a *spanAgg) Commit(global []float32) {
	start := time.Now()
	a.Aggregator.Commit(global)
	a.commits = append(a.commits, opSpan{"fedcore.Aggregator.Commit", start, time.Now(), a.round})
}

// traced adds the per-layer numbers of train_noniid: the two stages of the
// encode pipeline timed apart on the first samples, then the same
// federation driven by a benchmark-side round loop on fedcore.Engine with a
// span around every call into hdc and fedcore. Its global model must come
// out bit-identical to HDTrainer.Run's.
func (e *trainEnv) traced(o *outcome, c *checker, encTrain, encTest *tensor.Tensor, fed *federation) {
	spec, v := e.spec, o.values
	tr := newTracer()

	// core and hdc: Extractor.Features and Encoder.EncodeBatch on the first
	// samples, in the 64-sample chunks EncodeDataset uses.
	const chunk = 64
	chunks := min(replayOps, e.train.Len()) / chunk
	if chunks == 0 {
		c.failf("replay", "train split of %d samples is smaller than one %d-sample chunk", e.train.Len(), chunk)
		return
	}
	sampleLen := e.train.SampleLen()
	feats := make([]*tensor.Tensor, chunks)
	extract := timeCalls(chunks, func(i int) {
		shape := append([]int{chunk}, e.train.SampleShape()...)
		x := tensor.FromSlice(e.train.X.Data()[i*chunk*sampleLen:(i+1)*chunk*sampleLen], shape...)
		feats[i] = e.model.Extractor.Features(x)
	})[0]
	chunkIDs := make([]int, chunks)
	for i := range chunkIDs {
		chunkIDs[i] = i * chunk
	}
	tr.addSpans("core.Extractor.Features", extract, nil, chunkIDs)
	encode := timeCalls(chunks, func(i int) { e.model.Encoder.EncodeBatch(feats[i]) })[0]
	tr.addSpans("hdc.Encoder.EncodeBatch", encode, nil, chunkIDs)
	v["core.extract_ns_per_sample"] = extract.medianNs() / chunk
	v["hdc.encode_ns_per_sample"] = encode.medianNs() / chunk

	// The round loop, rebuilt on fedcore.Engine exactly as HDTrainer
	// configures it, with spans around every call it makes.
	cfg := e.config()
	d := encTrain.Dim(1)
	global := hdc.NewModel(spec.classes, d)
	bundled := make([]bool, spec.clients)
	workers := make([]workerSpans, max(1, e.workers))
	for i := range workers {
		workers[i].busy = map[int]time.Duration{}
	}
	agg := &spanAgg{Aggregator: &fedcore.Bundle{}}
	var evals []opSpan
	var roundEnds []time.Time
	eng := &fedcore.Engine{
		Clients:       cfg.NumClients,
		Fraction:      cfg.ClientFraction,
		Rounds:        cfg.Rounds,
		Seed:          cfg.Seed,
		Parallel:      cfg.Parallel,
		BytesPerParam: 4,
		SampleRNG:     fedcore.ClientRNG(cfg.Seed, 0, -1),
		Agg:           agg,
		Global:        global.Flat(),
		Train: func(worker, round, id int, _ *rand.Rand) (fedcore.Update, bool) {
			idx := e.part[id]
			if len(idx) == 0 {
				return fedcore.Update{}, false
			}
			w := &workers[worker]
			begin := time.Now()
			local := global.Clone()
			cloned := time.Now()
			w.spans = append(w.spans, opSpan{"hdc.Model.Clone", begin, cloned, round})
			w.clone = append(w.clone, ns(cloned.Sub(begin)))
			enc := tensor.New(len(idx), d)
			labels := make([]int, len(idx))
			for bi, i := range idx {
				copy(enc.Data()[bi*d:(bi+1)*d], encTrain.Data()[i*d:(i+1)*d])
				labels[bi] = e.train.Labels[i]
			}
			if !bundled[id] {
				start := time.Now()
				local.OneShotTrain(enc, labels)
				end := time.Now()
				w.spans = append(w.spans, opSpan{"hdc.Model.OneShotTrain", start, end, round})
				w.oneshot = append(w.oneshot, ns(end.Sub(start))/float64(len(idx)))
				bundled[id] = true
			}
			for ep := 0; ep < cfg.LocalEpochs; ep++ {
				start := time.Now()
				wrong := local.RefineEpoch(enc, labels)
				end := time.Now()
				w.spans = append(w.spans, opSpan{"hdc.Model.RefineEpoch", start, end, round})
				w.refine = append(w.refine, ns(end.Sub(start))/float64(len(idx)))
				if wrong == 0 {
					break
				}
			}
			w.busy[round] += time.Since(begin)
			return fedcore.Update{Params: local.Flat(), Samples: len(idx)}, true
		},
		Evaluate: func() float64 {
			start := time.Now()
			acc := global.Accuracy(encTest, e.test.Labels)
			evals = append(evals, opSpan{"hdc.Model.Accuracy", start, time.Now(), len(evals) + 1})
			return acc
		},
		OnRound: func(fedcore.RoundStats) { roundEnds = append(roundEnds, time.Now()) },
	}
	begin := time.Now()
	eng.Run()
	tracedWall := time.Since(begin)
	verifyModel(c, global.Flat(), fed.global.Flat())

	// Per round: what is left of the round once the busiest worker's
	// training, the adds, the commit and the evaluation are taken out —
	// sampling, dispatch, the barrier and traffic accounting.
	perRound := func(spans []opSpan) map[int]time.Duration {
		out := map[int]time.Duration{}
		for _, s := range spans {
			out[s.op] += s.end.Sub(s.start)
		}
		return out
	}
	adds, commits, evalBy := perRound(agg.adds), perRound(agg.commits), perRound(evals)
	var self, addNs, commitNs, evalNs, clone, oneshot, refine []float64
	parents := make(map[int]int, len(roundEnds)) // round -> its op.round span
	prev := begin
	for r, end := range roundEnds {
		round := r + 1
		parents[round] = tr.add("op.round", prev, end, -1, round)
		var busiest time.Duration
		for i := range workers {
			busiest = max(busiest, workers[i].busy[round])
		}
		self = append(self, selfTime(ns(end.Sub(prev)), ns(busiest), ns(adds[round]), ns(commits[round]), ns(evalBy[round])))
		commitNs = append(commitNs, ns(commits[round]))
		evalNs = append(evalNs, ns(evalBy[round])/float64(e.test.Len()))
		prev = end
	}
	groups := [][]opSpan{agg.adds, agg.commits, evals}
	for i := range workers {
		groups = append(groups, workers[i].spans)
		clone = append(clone, workers[i].clone...)
		oneshot = append(oneshot, workers[i].oneshot...)
		refine = append(refine, workers[i].refine...)
	}
	for _, group := range groups {
		for _, s := range group {
			tr.add(s.name, s.start, s.end, parents[s.op], s.op)
		}
	}
	for _, s := range agg.adds {
		addNs = append(addNs, ns(s.end.Sub(s.start)))
	}
	v["fedcore.engine_self_ns"] = medianFloat(self)
	v["fedcore.add_ns"] = medianFloat(addNs)
	v["fedcore.commit_ns"] = medianFloat(commitNs)
	v["hdc.oneshot_ns_per_sample"] = medianFloat(oneshot)
	v["hdc.refine_ns_per_sample"] = medianFloat(refine)
	v["hdc.clone_ns"] = medianFloat(clone)
	v["hdc.accuracy_ns_per_sample"] = medianFloat(evalNs)
	v["trace.overhead_share"] = 1 - (float64(spec.rounds)/tracedWall.Seconds())/v["fl.rounds_per_s"]
	v["trace.spans"] = float64(len(tr.spans))
	o.spans = tr.spans
	o.info["traced_rounds_per_s"] = float64(spec.rounds) / tracedWall.Seconds()
	o.info["note"] = fmt.Sprintf("engine loop of %d rounds bit-identical to HDTrainer.Run", spec.rounds)
	o.notApplicable = []string{"flnet.", "compress.", "fedcore.envelope_", "fedcore.add_allocs", "fedcore.commit_allocs"}
}
