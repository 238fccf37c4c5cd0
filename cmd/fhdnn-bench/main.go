// Command fhdnn-bench measures the blocked compute kernels against replicas
// of the pre-blocking serial kernels, sweeps them across worker-pool sizes
// (default 1/2/4/8 via tensor.SetWorkers), and writes the results as a
// tracked JSON baseline (BENCH_pr8.json): one row per (kernel, workers)
// with ns/op, MB/s and allocs/op, a speedups entry per kernel (blocked vs
// naive at one worker), and per-kernel scaling factors relative to the
// one-worker row. It also sweeps the sharded aggregation tree across shard
// counts (1/2/4/8), serial and with one owner goroutine per shard — the
// shard sweep is embedded in the main report and can additionally be
// written standalone (BENCH_pr7.json schema) via -shard-out. Run it via
// `make bench`; commit the refreshed files when kernel or aggregation work
// changes the numbers on the reference runner.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// Result is one benchmark row. MBPerS is derived from the operand bytes a
// single iteration touches (inputs + outputs, each counted once). Workers
// is the tensor pool size the row ran under (for shard rows: the number of
// concurrent owner goroutines), recorded per row because a single report
// now mixes worker counts.
type Result struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_op"`
	MBPerS      float64 `json:"mb_s"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// Report is the schema of BENCH_pr8.json. Speedups holds one
// "<kernel>" entry per swept kernel: blocked at one worker vs the naive
// serial replica. Scaling holds, per kernel, the throughput factor of each
// swept worker count relative to that kernel's one-worker row (only
// emitted when the sweep includes one worker).
type Report struct {
	GoVersion   string                        `json:"go_version"`
	GOARCH      string                        `json:"goarch"`
	NumCPU      int                           `json:"num_cpu"`
	GOMAXPROCS  int                           `json:"gomaxprocs"`
	FastKernels bool                          `json:"fast_kernels"`
	WorkerSweep []int                         `json:"worker_sweep"`
	Results     []Result                      `json:"results"`
	Speedups    map[string]float64            `json:"speedups"`
	Scaling     map[string]map[string]float64 `json:"scaling"`
	Shard       *ShardReport                  `json:"shard,omitempty"`
}

// naiveMatMulInto replicates the pre-blocking MatMul kernel (i-k-j AXPY
// with a zero-skip, single goroutine).
func naiveMatMulInto(c, a, b []float32, m, k, n int) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// naiveMatMulTransBInto replicates the pre-packing dot-product kernel: one
// serial ascending-k accumulator per output element, contiguous row-row
// dots, single goroutine.
func naiveMatMulTransBInto(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for kk, av := range arow {
				s += av * brow[kk]
			}
			crow[j] = s
		}
	}
}

// naiveMatVecInto replicates the pre-blocking matrix-vector kernel: one
// single-accumulator row dot per output element.
func naiveMatVecInto(y, a, x []float32, m, n int) {
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		var s float32
		for j, xv := range x {
			s += row[j] * xv
		}
		y[i] = s
	}
}

// naiveEncodeBatch replicates the pre-blocking batch encoder: one
// single-accumulator matrix-vector product per sample, then sign.
func naiveEncodeBatch(phi []float32, d, n int, z *tensor.Tensor, out *tensor.Tensor) {
	batch := z.Dim(0)
	for s := 0; s < batch; s++ {
		row := z.Data()[s*n : (s+1)*n]
		h := out.Data()[s*d : (s+1)*d]
		for i := 0; i < d; i++ {
			prow := phi[i*n : (i+1)*n]
			sum := float32(0)
			for j, v := range prow {
				sum += v * row[j]
			}
			if sum >= 0 {
				h[i] = 1
			} else {
				h[i] = -1
			}
		}
	}
}

func run(name string, workers int, bytesPerOp int64, fn func()) Result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	nsPerOp := r.NsPerOp()
	mbs := 0.0
	if nsPerOp > 0 {
		mbs = float64(bytesPerOp) / float64(nsPerOp) * 1e9 / 1e6
	}
	res := Result{
		Name:        name,
		Workers:     workers,
		NsPerOp:     nsPerOp,
		MBPerS:      mbs,
		AllocsPerOp: r.AllocsPerOp(),
	}
	fmt.Printf("%-28s w=%-2d %12d ns/op %10.1f MB/s %6d allocs/op\n",
		res.Name, res.Workers, res.NsPerOp, res.MBPerS, res.AllocsPerOp)
	return res
}

// ShardReport is the schema of BENCH_pr7.json: one aggregation round
// (Add every update, fold, commit) per op, swept over shard counts.
type ShardReport struct {
	GoVersion string             `json:"go_version"`
	GOARCH    string             `json:"goarch"`
	NumCPU    int                `json:"num_cpu"`
	Updates   int                `json:"updates"`
	Dim       int                `json:"dim"`
	Results   []Result           `json:"results"`
	Speedups  map[string]float64 `json:"speedups"`
}

// shardSweep benchmarks the sharded aggregation tree at 1/2/4/8 shards:
// serially (same goroutine adds everything — measures the pure fold
// overhead vs a flat aggregator) and partitioned (one owner goroutine per
// shard — the upper bound for the flnet server, whose upload handlers Add
// into a shard one at a time under that shard's token).
func shardSweep() (*ShardReport, error) {
	const n, d = 64, 10000
	rng := rand.New(rand.NewSource(7))
	ups := make([]fedcore.Update, n)
	for i := range ups {
		params := make([]float32, d)
		for j := range params {
			params[j] = float32(rng.NormFloat64())
		}
		ups[i] = fedcore.Update{Params: params, Samples: 1, ClientID: fmt.Sprintf("edge-%03d", i)}
	}
	global := make([]float32, d)
	roundBytes := int64((n*d + d) * 4)

	rep := &ShardReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Updates:   n,
		Dim:       d,
		Speedups:  map[string]float64{},
	}
	byName := map[string]Result{}
	add := func(name string, workers int, fn func()) {
		res := run(name, workers, roundBytes, fn)
		byName[name] = res
		rep.Results = append(rep.Results, res)
	}

	flat := &fedcore.Bundle{}
	add("FlatRound", 1, func() {
		flat.Reset()
		for _, u := range ups {
			flat.Add(u)
		}
		flat.Commit(global)
	})
	for _, shards := range []int{1, 2, 4, 8} {
		sh, err := fedcore.NewSharded(shards, func() fedcore.Aggregator { return &fedcore.Bundle{} })
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("ShardedRound%d", shards), 1, func() {
			sh.Reset()
			for _, u := range ups {
				sh.Add(u)
			}
			sh.Commit(global)
		})
		// Pre-route once; the partitioned benchmark measures concurrent
		// shard-owner ingest, not the hash.
		buckets := make([][]fedcore.Update, shards)
		for _, u := range ups {
			i := sh.ShardFor(u)
			buckets[i] = append(buckets[i], u)
		}
		add(fmt.Sprintf("ShardedRoundOwners%d", shards), shards, func() {
			sh.Reset()
			var wg sync.WaitGroup
			for i := 0; i < shards; i++ {
				i := i
				wg.Add(1)
				//fhdnn:allow goroutine one owner goroutine per shard, joined before the fold — the fedcore partitioned-ownership contract
				go func() {
					for _, u := range buckets[i] {
						sh.Shard(i).Add(u)
					}
					wg.Done()
				}()
			}
			wg.Wait()
			sh.Commit(global)
		})
	}
	for _, shards := range []int{1, 2, 4, 8} {
		serial := byName[fmt.Sprintf("ShardedRound%d", shards)]
		owners := byName[fmt.Sprintf("ShardedRoundOwners%d", shards)]
		rep.Speedups[fmt.Sprintf("owners%d_vs_flat", shards)] =
			float64(byName["FlatRound"].NsPerOp) / float64(owners.NsPerOp)
		rep.Speedups[fmt.Sprintf("sharded%d_overhead_vs_flat", shards)] =
			float64(serial.NsPerOp) / float64(byName["FlatRound"].NsPerOp)
	}
	for _, k := range []string{"owners2_vs_flat", "owners4_vs_flat", "owners8_vs_flat"} {
		fmt.Printf("speedup %-24s %.2fx\n", k, rep.Speedups[k])
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid worker count %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty worker sweep")
	}
	return out, nil
}

func main() {
	out := flag.String("out", "BENCH_pr8.json", "output JSON path ('' to skip writing)")
	shardOut := flag.String("shard-out", "", "also write the shard sweep standalone in the BENCH_pr7.json schema ('' to skip)")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated tensor worker counts to sweep")
	flag.Parse()

	sweep, err := parseWorkers(*workersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhdnn-bench:", err)
		os.Exit(1)
	}

	rep := Report{
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		FastKernels: tensor.FastKernels(),
		WorkerSweep: sweep,
		Speedups:    map[string]float64{},
		Scaling:     map[string]map[string]float64{},
	}

	origWorkers := tensor.SetWorkers(1)
	defer tensor.SetWorkers(origWorkers)

	// nsAt[kernel][workers] backs the speedup and scaling tables.
	nsAt := map[string]map[int]int64{}
	naive := func(name string, bytesPerOp int64, fn func()) {
		tensor.SetWorkers(1)
		rep.Results = append(rep.Results, run(name, 1, bytesPerOp, fn))
	}
	kernel := func(name string, bytesPerOp int64, fn func()) {
		nsAt[name] = map[int]int64{}
		for _, w := range sweep {
			tensor.SetWorkers(w)
			res := run(name, w, bytesPerOp, fn)
			rep.Results = append(rep.Results, res)
			nsAt[name][w] = res.NsPerOp
		}
		tensor.SetWorkers(1)
	}

	// --- MatMul / MatMulTransB 256x256x256 ---
	const mm = 256
	rng := rand.New(rand.NewSource(1))
	a := tensor.Randn(rng, 1, mm, mm)
	b := tensor.Randn(rng, 1, mm, mm)
	dst := tensor.New(mm, mm)
	mmBytes := int64(3 * mm * mm * 4)
	naive("MatMulNaive256", mmBytes, func() {
		naiveMatMulInto(dst.Data(), a.Data(), b.Data(), mm, mm, mm)
	})
	naive("MatMulTransBNaive256", mmBytes, func() {
		naiveMatMulTransBInto(dst.Data(), a.Data(), b.Data(), mm, mm, mm)
	})
	kernel("MatMulInto256", mmBytes, func() { tensor.MatMulInto(dst, a, b) })
	kernel("MatMulTransBInto256", mmBytes, func() { tensor.MatMulTransBInto(dst, a, b) })

	// --- MatVec 2048x512 ---
	const mvM, mvN = 2048, 512
	mva := tensor.Randn(rand.New(rand.NewSource(4)), 1, mvM, mvN)
	mvx := tensor.Randn(rand.New(rand.NewSource(5)), 1, mvN).Data()
	mvy := make([]float32, mvM)
	mvBytes := int64((mvM*mvN + mvN + mvM) * 4)
	naive("MatVecNaive2048x512", mvBytes, func() {
		naiveMatVecInto(mvy, mva.Data(), mvx, mvM, mvN)
	})
	kernel("MatVecInto2048x512", mvBytes, func() { tensor.MatVecInto(mvy, mva, mvx) })

	// --- EncodeBatch batch=64, d=10000, n=512 ---
	const batch, d, n = 64, 10000, 512
	enc := hdc.NewEncoder(rand.New(rand.NewSource(2)), d, n)
	z := tensor.Randn(rand.New(rand.NewSource(3)), 1, batch, n)
	h := tensor.New(batch, d)
	encBytes := int64((batch*n + d*n + batch*d) * 4)
	naive("EncodeBatchNaive", encBytes, func() {
		naiveEncodeBatch(enc.Phi.Data(), d, n, z, h)
	})
	kernel("EncodeBatch", encBytes, func() { enc.EncodeBatchInto(h, z) })

	// --- single-vector EncodeInto (allocation check rides along) ---
	zRow := z.Data()[:n]
	hRow := make([]float32, d)
	kernel("EncodeInto", int64((n+d*n+d)*4), func() { enc.EncodeInto(hRow, zRow) })

	// Speedups: blocked kernel at one worker vs its naive serial replica.
	// EncodeInto has no separate naive replica; EncodeBatchNaive is the
	// per-sample loop, so its per-row cost is the honest baseline.
	speedup := func(key, kern, base string, baseScale float64) {
		kw, ok := nsAt[kern][1]
		if !ok {
			return
		}
		for _, r := range rep.Results {
			if r.Name == base {
				rep.Speedups[key] = float64(r.NsPerOp) * baseScale / float64(kw)
				fmt.Printf("speedup %-20s %.2fx\n", key, rep.Speedups[key])
				return
			}
		}
	}
	speedup("MatMul256", "MatMulInto256", "MatMulNaive256", 1)
	speedup("MatMulTransB256", "MatMulTransBInto256", "MatMulTransBNaive256", 1)
	speedup("MatVec2048x512", "MatVecInto2048x512", "MatVecNaive2048x512", 1)
	speedup("EncodeBatch", "EncodeBatch", "EncodeBatchNaive", 1)
	speedup("EncodeInto", "EncodeInto", "EncodeBatchNaive", 1.0/batch)

	// Scaling: per-kernel throughput factor of every swept worker count
	// relative to that kernel's one-worker row.
	for name, byW := range nsAt {
		base, ok := byW[1]
		if !ok {
			continue
		}
		m := map[string]float64{}
		for w, ns := range byW {
			if w == 1 || ns == 0 {
				continue
			}
			m[strconv.Itoa(w)] = float64(base) / float64(ns)
		}
		if len(m) > 0 {
			rep.Scaling[name] = m
			fmt.Printf("scaling %-20s %v\n", name, m)
		}
	}

	tensor.SetWorkers(origWorkers)
	shard, err := shardSweep()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhdnn-bench:", err)
		os.Exit(1)
	}
	rep.Shard = shard
	if *shardOut != "" {
		if err := writeJSON(*shardOut, shard); err != nil {
			fmt.Fprintln(os.Stderr, "fhdnn-bench:", err)
			os.Exit(1)
		}
	}

	if *out != "" {
		if err := writeJSON(*out, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "fhdnn-bench:", err)
			os.Exit(1)
		}
	}
}
