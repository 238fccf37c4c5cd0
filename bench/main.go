// Command bench is the repository's end-to-end and per-layer benchmark. It
// measures the three things FHDnn claims to make cheap — server ingest of
// client uploads, the device-to-server round trip, and federated HD
// training to a target accuracy — from outside, by timing calls into
// exported functions, and checks that every output is correct.
//
//	go run ./bench                               every workload, each in its own process
//	go run ./bench -workload ingest_raw_400k     one workload, in this process
//	go run ./bench -workload train_noniid -trace 1
//	go run ./bench -repeat 2 -seed 7             two sets, compared against the bounds
//
// BENCHMARK.json at the repository root names the workloads, metrics, units
// and bounds; README.md in this directory explains each of them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// options are the settings of one workload run.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	conns   int // closed-loop connections and generator goroutines
	workers int // simulator and kernel workers of train_noniid
	outDir  string
}

// maxConns caps the closed loop: beyond a few connections on a small box
// the generator only competes with the server for the same cores.
const maxConns = 4

// The workloads at full size. Sizes are fixed here and repeated in
// README.md; only the length of the HTTP workloads' timed phase comes from
// -seconds.
var (
	httpWorkloads = []httpSpec{
		{name: "ingest_raw_400k", classes: 10, dim: 10000, clients: 500, aggregator: "bundle",
			pool: 64, warmup: 2, setupReps: 3, tailPct: 99},
		{name: "ingest_small_4k", classes: 2, dim: 512, clients: 10000, aggregator: "bundle",
			pool: 64, warmup: 2, setupReps: 3, tailPct: 99},
		{name: "fleet_mixed_median", classes: 10, dim: 2048, clients: 200, aggregator: "median", fleet: true,
			pool: 256, warmup: 2, setupReps: 3, tailPct: 99},
	}
	trainWorkload = trainSpec{name: "train_noniid", imageSize: 16, trainPerClass: 500, testPerClass: 50, width: 8,
		hdDim: 10000, classes: 10, clients: 100, alpha: 0.5, fraction: 0.2, epochs: 2, rounds: 40, target: 0.95,
		setupReps: 5, encodeReps: 3, tailPct: 75}
)

// runWorkload runs one workload in this process.
func runWorkload(name string, opt options) (*outcome, *checker, error) {
	for _, spec := range httpWorkloads {
		if spec.name == name {
			o, c := runHTTP(spec, opt)
			return o, c, nil
		}
	}
	if name == trainWorkload.name {
		o, c := runTrain(trainWorkload, opt)
		return o, c, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", name)
}

// report is what one workload run writes to <out>/report-<workload>.json.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Env      map[string]any `json:"env"`
	Info     map[string]any `json:"info"`
	Failures []string       `json:"failed_checks"`
	Result   finalLine      `json:"result"`
}

func environment(opt options) map[string]any {
	tags := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				tags = s.Value
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"conns":      opt.conns,
		"workers":    opt.workers,
		"build_tags": tags,
		"link":       "loopback, in-process server: not a real link",
	}
}

// finish holds an outcome against BENCHMARK.json, prints one line per
// metric and the final JSON line, and writes the report and the trace.
func finish(spec *benchSpec, o *outcome, c *checker, opt options) (finalLine, error) {
	list := spec.metrics(opt.traced)
	metrics := collectMetrics(c, list, o)
	final := finalLine{Correct: c.ok(), Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: metrics}

	env := environment(opt)
	fmt.Printf("# %s seed=%d seconds=%g traced=%v go=%s gomaxprocs=%d nproc=%d conns=%d workers=%d tags=%q link=loopback\n",
		o.workload, opt.seed, opt.seconds, opt.traced, env["go"], env["gomaxprocs"], env["nproc"], opt.conns, opt.workers, env["build_tags"])
	for _, m := range list {
		fmt.Printf("%s %s %s %s\n", o.workload, m.Name, formatValue(metrics[m.Name].Value), m.Unit)
	}
	fmt.Printf("# %s attempted=%d failed=%d op_samples=%v\n", o.workload, final.Attempted, final.Failed, o.info["op_samples"])
	for _, f := range c.failures {
		fmt.Printf("# FAILED %s: %s\n", o.workload, f)
	}

	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return final, fmt.Errorf("create output directory: %w", err)
	}
	if opt.traced && o.spans != nil {
		path, err := writeTrace(opt.outDir, o.workload, opt.seed, o.spans)
		if err != nil {
			return final, err
		}
		fmt.Printf("# %s trace: %d spans in %s\n", o.workload, len(o.spans), path)
	}
	name := "report-" + o.workload + ".json"
	if opt.traced {
		name = "report-" + o.workload + "-traced.json"
	}
	data, err := json.MarshalIndent(report{
		Workload: o.workload, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced,
		Env: env, Info: o.info, Failures: c.failures, Result: final,
	}, "", "  ")
	if err != nil {
		return final, fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, name), data, 0o644); err != nil {
		return final, fmt.Errorf("write report: %w", err)
	}
	return final, nil
}

// formatValue prints a value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// runChild runs one workload in a process of its own, so peak_rss_mb is
// that workload's alone, passes its output through and returns its final
// line.
func runChild(workload string, opt options) (finalLine, error) {
	var final finalLine
	self, err := os.Executable()
	if err != nil {
		return final, fmt.Errorf("locate own binary: %w", err)
	}
	trace := "0"
	if opt.traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", formatValue(opt.seconds), "-trace", trace, "-out", opt.outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	text := strings.TrimRight(string(out), "\n")
	fmt.Println(text)
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		return final, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	if runErr != nil {
		return final, fmt.Errorf("%s: %w", workload, runErr)
	}
	return final, nil
}

// runSet runs every workload in turn and returns their final lines.
func runSet(spec *benchSpec, opt options) (map[string]finalLine, error) {
	set := make(map[string]finalLine, len(spec.Workloads))
	var failed []string
	for _, w := range spec.Workloads {
		final, err := runChild(w.Name, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = append(failed, w.Name)
		}
		set[w.Name] = final
	}
	if len(failed) > 0 {
		return set, fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return set, nil
}

// worsening is how far b is on the wrong side of a, as a share of a.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeat runs n sets back to back and compares each later set with the
// first: for every workload and end-to-end metric the relative difference
// must stay within the metric's bound, in either direction — two runs of
// the same code that disagree by more are noise the bound cannot resolve.
func repeat(spec *benchSpec, opt options, n int) error {
	sets := make([]map[string]finalLine, n)
	for i := range sets {
		fmt.Printf("# set %d of %d\n", i+1, n)
		set, err := runSet(spec, opt)
		if err != nil {
			return err
		}
		sets[i] = set
	}
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Set      int     `json:"set"`
		First    float64 `json:"first"`
		Value    float64 `json:"value"`
		Diff     float64 `json:"relative_difference"`
		Bound    float64 `json:"bound"`
		Breach   bool    `json:"breach"`
	}
	var rows []row
	breaches := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			first := sets[0][w.Name].Metrics[m.Name].Value
			for i := 1; i < n; i++ {
				value := sets[i][w.Name].Metrics[m.Name].Value
				diff := worsening(m, first, value)
				r := row{w.Name, m.Name, i + 1, first, value, diff, m.Bound, math.Abs(diff) > m.Bound}
				if r.Breach {
					breaches++
				}
				rows = append(rows, r)
				fmt.Printf("%s %s set %d: %s vs %s in set 1, worse by %+.4f, bound %.2f%s\n", w.Name, m.Name, i+1,
					formatValue(value), formatValue(first), diff, m.Bound, map[bool]string{true: "  BREACH"}[r.Breach])
			}
		}
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return fmt.Errorf("encode spreads: %w", err)
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, "repeat.json"), data, 0o644); err != nil {
		return fmt.Errorf("write spreads: %w", err)
	}
	if breaches > 0 {
		return fmt.Errorf("%d workload x metric pairs differ between sets by more than their bound", breaches)
	}
	return nil
}

func run() error {
	workload := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs; the program under test never sees it")
	seconds := flag.Float64("seconds", 0, "length of the timed phase of the HTTP workloads (default: run_seconds of "+specFile+")")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and <out>/trace-<workload>.json")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for reports and traces")
	repeats := flag.Int("repeat", 0, "run this many full sets and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}

	spec, err := loadSpec()
	if err != nil {
		return err
	}
	opt := options{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		conns:   min(runtime.NumCPU(), maxConns),
		workers: runtime.NumCPU(),
		outDir:  *out,
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}

	if *workload != "" {
		o, c, err := runWorkload(*workload, opt)
		if err != nil {
			return err
		}
		final, err := finish(spec, o, c, opt)
		if err != nil {
			return err
		}
		line, err := json.Marshal(final)
		if err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		fmt.Println(string(line))
		if !final.Correct {
			return fmt.Errorf("%s: %d output checks failed", *workload, len(c.failures))
		}
		return nil
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	if *repeats > 1 {
		return repeat(spec, opt, *repeats)
	}
	_, err = runSet(spec, opt)
	return err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
