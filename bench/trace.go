package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into the program, recorded by benchmark code
// only. Parent is the index of the enclosing span in the same trace (-1
// for a root). Loopback spans nest as observed (op.round contains the
// uploads sent during it). Replay spans cannot observe nesting from
// outside, so a child is the inner exported function called on the same
// bytes as its parent, timed on its own. Op identifies the workload
// operation (round*clients + slot, or the sample/round index for
// train_noniid) so the spans of one operation can be joined.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. It is not safe for
// concurrent use: concurrent recorders fill their own slices, which the
// owner adds after joining them.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	t.spans = append(t.spans, span{
		Name:    name,
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		EndNs:   end.Sub(t.epoch).Nanoseconds(),
		Parent:  parent,
		Op:      op,
	})
	return len(t.spans) - 1
}

// timed is one layer's share of a replay pass: start, duration and heap
// allocations of every call.
type timed struct {
	starts     []time.Time
	durs       []time.Duration
	mallocs    []uint64
	allocBytes []uint64
}

// timeCalls is one replay pass on the calling goroutine: for each i in
// [0,n) it runs calls[0](i), calls[1](i), ... in turn and returns one timed
// per call. Calls that nest in the program (an envelope decode and the
// codec decode inside it) go into one pass, so each pair is timed back to
// back on the same heap and their difference is a self time rather than a
// difference of two heap states. Allocations are a MemStats delta around
// every single call, taken outside its timing. Everything a call allocates
// is counted, so per-call set-up (requests, recorders) is built before the
// pass. A collection runs first, so a pass starts from a swept heap and
// pays only for the garbage it makes itself.
func timeCalls(n int, calls ...func(i int)) []timed {
	out := make([]timed, len(calls))
	for k := range out {
		out[k] = timed{
			starts:     make([]time.Time, n),
			durs:       make([]time.Duration, n),
			mallocs:    make([]uint64, n),
			allocBytes: make([]uint64, n),
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		for k, call := range calls {
			t := &out[k]
			t.starts[i] = time.Now()
			call(i)
			t.durs[i] = time.Since(t.starts[i])
			runtime.ReadMemStats(&after)
			t.mallocs[i] = after.Mallocs - before.Mallocs
			t.allocBytes[i] = after.TotalAlloc - before.TotalAlloc
			before = after
		}
	}
	return out
}

// only returns the calls at the given positions.
func (t timed) only(idx []int) timed {
	out := timed{}
	for _, i := range idx {
		out.starts = append(out.starts, t.starts[i])
		out.durs = append(out.durs, t.durs[i])
		out.mallocs = append(out.mallocs, t.mallocs[i])
		out.allocBytes = append(out.allocBytes, t.allocBytes[i])
	}
	return out
}

func (t timed) medianNs() float64 { return ns(medianDuration(t.durs)) }

func (t timed) allocsPerCall() float64 { return meanUint(t.mallocs) }

func (t timed) bytesPerCall() float64 { return meanUint(t.allocBytes) }

func meanUint(v []uint64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum uint64
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}

// addSpans records pass t under name; parents[i] is the parent span of call
// i (nil for roots) and ops[i] its operation id. It returns the new spans'
// indices so a later pass can name them as parents.
func (tr *tracer) addSpans(name string, t timed, parents, ops []int) []int {
	idx := make([]int, len(t.durs))
	for i, d := range t.durs {
		parent := -1
		if parents != nil {
			parent = parents[i]
		}
		idx[i] = tr.add(name, t.starts[i], t.starts[i].Add(d), parent, ops[i])
	}
	return idx
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{
		Workload: workload,
		Seed:     seed,
		Note:     "spans recorded by bench/ around calls into exported functions; parent = enclosing call on the same bytes",
		Spans:    spans,
	})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
