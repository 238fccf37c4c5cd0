// Command fhdnn-lint enforces the repo's determinism, kernel and
// wire-safety invariants (see internal/analysis for the rule set). It is
// built only on the standard library and runs as a required CI step.
//
// Usage:
//
//	fhdnn-lint [-json] [-suppressed] [-rules r1,r2] [-timing] [-version] [packages...]
//
// Packages are directory patterns relative to the module root
// ("./...", "./internal/flnet"); the default is ./... .
//
// -timing prints a per-rule wall-time table to stderr after the run
// (the shared stages, package loading and the module call graph, get
// their own rows), so CI can track the whole-repo latency budget.
// -budget fails the run (exit 1, unless findings already set a code)
// when the total sweep time exceeds the given duration, which is how CI
// pins the ~10s whole-repo budget.
//
// Exit codes identify what fired, so CI and scripts can react per rule:
//
//	0    clean
//	1    analysis could not run (parse/type/load failure), or the
//	     -budget deadline was exceeded on an otherwise clean run
//	64|b findings; b is a bitmask of the rules that fired:
//	     1 determinism, 2 goroutine, 4 wire-error, 8 print-panic,
//	     16 float64, 32 malformed/stale //fhdnn:allow directive,
//	     128 the call-graph rule (hotalloc)
//
// Unix exit codes are eight bits and 64|1|2|4|8|16|32 uses seven of
// them, so the call-graph rule takes the last bit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"fhdnn/internal/analysis"
)

// ruleBits maps each rule to its exit-code bit. The call-graph rule
// takes bit 128: the lower bits are spoken for and exit codes stop at
// 255.
var ruleBits = map[string]int{
	analysis.RuleDeterminism: 1,
	analysis.RuleGoroutine:   2,
	analysis.RuleWireError:   4,
	analysis.RulePrintPanic:  8,
	analysis.RuleFloat64:     16,
	analysis.RuleAllow:       32,
	analysis.RuleHotAlloc:    128,
}

func main() {
	var (
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON instead of file:line diagnostics")
		suppressed = flag.Bool("suppressed", false, "also list findings silenced by //fhdnn:allow directives")
		rulesFlag  = flag.String("rules", "", "comma-separated rule subset (default: all of "+strings.Join(analysis.AllRules, ",")+"; the allow directive audit always runs for the enabled rules and is not selectable)")
		rootFlag   = flag.String("root", ".", "module root to lint (directory containing go.mod)")
		timing     = flag.Bool("timing", false, "print per-rule wall time to stderr after the run")
		budget     = flag.Duration("budget", 0, "fail if the whole sweep takes longer than this (0 disables)")
		version    = flag.Bool("version", false, "print analyzer version and rule set, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("fhdnn-lint %s (rules: %s)\n", analysis.Version, strings.Join(analysis.AllRules, ","))
		return
	}

	var rules []string
	if *rulesFlag != "" {
		for _, r := range strings.Split(*rulesFlag, ",") {
			r = strings.TrimSpace(r)
			if _, ok := ruleBits[r]; !ok || r == analysis.RuleAllow {
				fmt.Fprintf(os.Stderr, "fhdnn-lint: unknown rule %q (have %s)\n", r, strings.Join(analysis.AllRules, ", "))
				os.Exit(1)
			}
			rules = append(rules, r)
		}
	}

	res, err := analysis.Run(*rootFlag, flag.Args(), rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhdnn-lint:", err)
		os.Exit(1)
	}

	if *jsonOut {
		out := struct {
			Version    string                `json:"version"`
			Packages   int                   `json:"packages"`
			Findings   []analysis.Diagnostic `json:"findings"`
			Suppressed []analysis.Diagnostic `json:"suppressed,omitempty"`
		}{analysis.Version, res.Packages, res.Diags, nil}
		// nil slices marshal as null; consumers should always see arrays
		if out.Findings == nil {
			out.Findings = []analysis.Diagnostic{}
		}
		if *suppressed {
			out.Suppressed = res.Suppressed
			if out.Suppressed == nil {
				out.Suppressed = []analysis.Diagnostic{}
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "fhdnn-lint:", err)
			os.Exit(1)
		}
	} else {
		for _, d := range res.Diags {
			fmt.Println(d)
		}
		if *suppressed {
			for _, d := range res.Suppressed {
				fmt.Printf("%s (suppressed)\n", d)
			}
		}
		if len(res.Diags) > 0 {
			fmt.Fprintf(os.Stderr, "fhdnn-lint: %d finding(s) in %d package(s)\n", len(res.Diags), res.Packages)
		}
	}

	var total float64
	for _, t := range res.Timing {
		total += t.Seconds
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "fhdnn-lint timing (%d packages):\n", res.Packages)
		for _, t := range res.Timing {
			fmt.Fprintf(os.Stderr, "  %-12s %8.1fms\n", t.Name, t.Seconds*1000)
		}
		fmt.Fprintf(os.Stderr, "  %-12s %8.1fms\n", "total", total*1000)
	}
	overBudget := *budget > 0 && total > budget.Seconds()
	if overBudget {
		fmt.Fprintf(os.Stderr, "fhdnn-lint: sweep took %.1fs, over the %s budget\n", total, *budget)
	}

	if len(res.Diags) == 0 {
		if overBudget {
			os.Exit(1)
		}
		return
	}
	code := 64
	for _, d := range res.Diags {
		code |= ruleBits[d.Rule]
	}
	os.Exit(code)
}
