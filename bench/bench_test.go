package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// Toy sizes: every code path of the four workloads, in well under a second
// each.
var (
	toyIngest = httpSpec{name: "toy_ingest", classes: 2, dim: 64, clients: 20, aggregator: "bundle",
		pool: 8, warmup: 1, rounds: 2, setupReps: 1}
	toyFleet = httpSpec{name: "toy_fleet", classes: 2, dim: 64, clients: 20, aggregator: "median", fleet: true,
		pool: 32, warmup: 1, rounds: 2, setupReps: 1}
	toyTrain = trainSpec{name: "toy_train", imageSize: 8, trainPerClass: 20, testPerClass: 5, width: 4,
		hdDim: 256, classes: 10, clients: 10, alpha: 0.5, fraction: 0.5, epochs: 1, rounds: 2, target: 0.2,
		setupReps: 1, encodeReps: 1}
)

func toyOptions(traced bool) options {
	return options{seed: 3, seconds: 1, traced: traced, conns: 2, workers: 2}
}

// TestSmokeAllWorkloads runs all four workloads in-process at toy size,
// untraced and traced, and requires every metric BENCHMARK.json names to be
// emitted and finite and every output check to pass.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatalf("%s names %d end-to-end and %d per-layer metrics", specFile, len(spec.EndToEnd), len(spec.PerLayer))
	}
	runs := map[string]func(options) (*outcome, *checker){
		"ingest_raw_400k":    func(o options) (*outcome, *checker) { return runHTTP(toyIngest, o) },
		"ingest_small_4k":    func(o options) (*outcome, *checker) { return runHTTP(toyIngest, o) },
		"fleet_mixed_median": func(o options) (*outcome, *checker) { return runHTTP(toyFleet, o) },
		"train_noniid":       func(o options) (*outcome, *checker) { return runTrain(toyTrain, o) },
	}
	for _, w := range spec.Workloads {
		run, ok := runs[w.Name]
		if !ok {
			t.Errorf("%s names workload %s, which has no toy run here", specFile, w.Name)
			continue
		}
		known := w.Name == trainWorkload.name
		for _, h := range httpWorkloads {
			known = known || h.name == w.Name
		}
		if !known {
			t.Errorf("%s names workload %s, which the program does not know", specFile, w.Name)
		}
		for _, traced := range []bool{false, true} {
			o, c := run(toyOptions(traced))
			metrics := collectMetrics(c, spec.metrics(traced), o)
			for _, f := range c.failures {
				t.Errorf("%s traced=%v: %s", w.Name, traced, f)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, o.attempted, o.failed)
			}
			if traced {
				if len(o.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
				continue
			}
			for _, m := range spec.EndToEnd {
				if v := metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, m.Name, v)
				}
			}
		}
	}
}

// The verifier must be able to fail: each of these feeds it one wrong
// output and requires the failure to name the check.

func TestVerifierRejectsFlippedModelBit(t *testing.T) {
	env, err := setupHTTP(toyIngest, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	rows, err := env.cleanRows(env.rounds)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := env.srv.Model()
	got := model.Flat()
	c := &checker{}
	verifyModel(c, got, refMean(rows))
	if !c.ok() {
		t.Fatalf("committed model differs from the reference before any bit is flipped: %v", c.failures)
	}
	got[5] = math.Float32frombits(math.Float32bits(got[5]) ^ 1)
	verifyModel(c, got, refMean(rows))
	requireFailure(t, c, "committed-model", "parameter 5")
}

func TestVerifierRejectsExtraQuarantine(t *testing.T) {
	env, err := setupHTTP(toyFleet, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	c := &checker{}
	st := env.srv.Stats()
	verifyStats(c, st, env.wantStats())
	if !c.ok() {
		t.Fatalf("untouched stats rejected: %v", c.failures)
	}
	st.UpdatesQuarantined++
	st.QuarantinedByReason["nonfinite"]++
	verifyStats(c, st, env.wantStats())
	requireFailure(t, c, "server-stats", "quarantined_nonfinite = 3, want 2")
}

func TestVerifierRejectsMissingAndUnnamedMetric(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	o, c := runHTTP(toyIngest, toyOptions(false))
	delete(o.values, "updates_per_s")
	o.values["made_up"] = 1
	o.values["op_p50_ms"] = math.NaN()
	final, err := finish(spec, o, c, options{outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if final.Correct {
		t.Error("a run with a missing metric was reported correct")
	}
	requireFailure(t, c, "metric-missing", "updates_per_s")
	requireFailure(t, c, "metric-unnamed", "made_up")
	requireFailure(t, c, "metric-finite", "op_p50_ms")
}

func requireFailure(t *testing.T, c *checker, check, detail string) {
	t.Helper()
	for _, f := range c.failures {
		if strings.HasPrefix(f, check+":") && strings.Contains(f, detail) {
			return
		}
	}
	t.Errorf("no %q failure mentioning %q in %v", check, detail, c.failures)
}

func TestPickTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {100000, 99},
	} {
		got := pickTail(tc.n)
		if got != tc.want {
			t.Errorf("pickTail(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if tc.n >= 20 && beyond(tc.n, got) < minBeyond {
			t.Errorf("pickTail(%d) = p%g leaves %d samples beyond, want >= %d", tc.n, got, beyond(tc.n, got), minBeyond)
		}
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := beyond(999, 99); got != 9 {
		t.Errorf("beyond(999, 99) = %d, want 9", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 10; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	s := sortDurations(d)
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {75, 8}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%g of 1..10 = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianFloat = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	if got := selfTime(1000, 300, 450); got != 250 {
		t.Errorf("selfTime(1000, 300, 450) = %v, want 250", got)
	}
	if got := selfTime(100); got != 100 {
		t.Errorf("selfTime with no children = %v, want 100", got)
	}
	if got := selfTime(100, 70, 50); got != -20 {
		t.Errorf("selfTime must report a negative remainder as measured, got %v", got)
	}
}

func TestReferenceMeanAndMedian(t *testing.T) {
	rows := [][]float32{
		{1, -8, 2, 0.5},
		{2, 8, 2, 0.25},
		{6, 3, -7, 0.125},
	}
	wantMean := []float32{3, 1, -1, float32((0.5 + 0.25 + 0.125) * (1.0 / 3.0))}
	wantMedian := []float32{2, 3, 2, 0.25}
	for j, got := range refMean(rows) {
		if got != wantMean[j] {
			t.Errorf("refMean[%d] = %v, want %v", j, got, wantMean[j])
		}
	}
	for j, got := range refMedian(rows) {
		if got != wantMedian[j] {
			t.Errorf("refMedian[%d] = %v, want %v", j, got, wantMedian[j])
		}
	}
	even := refMedian(append(rows, []float32{4, 5, 10, 1}))
	for j, want := range []float32{3, 4, 2, 0.375} {
		if even[j] != want {
			t.Errorf("refMedian of four rows [%d] = %v, want %v", j, even[j], want)
		}
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	lower := metricSpec{Better: "lower"}
	higher := metricSpec{Better: "higher"}
	if got := worsening(lower, 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11 worsens by %v, want 0.1", got)
	}
	if got := worsening(higher, 10, 11); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 11 worsens by %v, want -0.1", got)
	}
}
