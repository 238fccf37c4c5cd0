package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// specFile is the contract this program measures to. It sits at the root
// of the repository, which is the working directory under `go run ./bench`
// and the parent directory under `go test`.
const specFile = "BENCHMARK.json"

// metricSpec is one metric named in BENCHMARK.json. Bound is set for
// end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{specFile, "../" + specFile} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("run from the repository root: %w", firstErr)
}

// metrics returns the list a run must emit: per-layer for a traced run,
// end-to-end otherwise.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// checker collects failed output checks. Every failure names its check, so
// a red run says which promise was broken.
type checker struct {
	failures []string
}

func (c *checker) failf(check, format string, args ...any) {
	c.failures = append(c.failures, check+": "+fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// outcome is what one workload run produced, before it is held against
// BENCHMARK.json.
type outcome struct {
	workload  string
	attempted int
	failed    int
	values    map[string]float64
	// notApplicable lists name prefixes or suffixes of per-layer metrics
	// whose layer this workload does not execute; they are emitted as 0. Anything else
	// that is named in BENCHMARK.json and missing from values is a failed
	// check.
	notApplicable []string
	info          map[string]any
	spans         []span
}

type emitted struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the JSON object printed last on standard output.
type finalLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]emitted `json:"metrics"`
}

// collectMetrics holds an outcome's values against the named list: every
// named metric must be present and finite, and nothing else may be
// emitted.
func collectMetrics(c *checker, list []metricSpec, o *outcome) map[string]emitted {
	out := make(map[string]emitted, len(list))
	named := make(map[string]bool, len(list))
	for _, m := range list {
		named[m.Name] = true
		v, ok := o.values[m.Name]
		if !ok {
			if !matchesAny(m.Name, o.notApplicable) {
				c.failf("metric-missing", "%s is named in %s but %s did not emit it", m.Name, specFile, o.workload)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			c.failf("metric-finite", "%s = %v on %s", m.Name, v, o.workload)
			v = 0
		}
		out[m.Name] = emitted{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range o.values {
		if !named[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		c.failf("metric-unnamed", "%s emitted %s, which %s does not name", o.workload, name, specFile)
	}
	return out
}

func matchesAny(name string, affixes []string) bool {
	for _, a := range affixes {
		if strings.HasPrefix(name, a) || strings.HasSuffix(name, a) {
			return true
		}
	}
	return false
}
