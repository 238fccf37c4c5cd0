// Command fhdnn-lint enforces the repo's determinism, goroutine and
// wire-safety invariants (see internal/analysis for the rule set). It is
// built only on the standard library and runs as a required CI step.
//
// Usage:
//
//	fhdnn-lint [-json] [-suppressed] [-rules r1,r2] [-version] [packages...]
//
// Packages are directory patterns relative to the module root
// ("./...", "./internal/flnet"); the default is ./... .
//
// Exit codes identify what fired, so CI and scripts can react per rule:
//
//	0    clean
//	1    analysis could not run (parse/type/load failure, unknown rule)
//	64|b findings; b is a bitmask of the rules that fired:
//	     1 determinism, 2 goroutine, 4 wire-error, 8 print-panic,
//	     32 malformed/stale //fhdnn:allow directive
//
// Bits 16 and 128 belonged to the retired float64 and hotalloc rules and
// are not reused, so an old exit code keeps its meaning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"fhdnn/internal/analysis"
)

// ruleBits maps each rule to its exit-code bit.
var ruleBits = map[string]int{
	analysis.RuleDeterminism: 1,
	analysis.RuleGoroutine:   2,
	analysis.RuleWireError:   4,
	analysis.RulePrintPanic:  8,
	analysis.RuleAllow:       32,
}

func main() {
	var (
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON instead of file:line diagnostics")
		suppressed = flag.Bool("suppressed", false, "also list findings silenced by //fhdnn:allow directives")
		rulesFlag  = flag.String("rules", "", "comma-separated rule subset (default: all of "+strings.Join(analysis.AllRules, ",")+"; the allow directive audit always runs for the enabled rules and is not selectable)")
		rootFlag   = flag.String("root", ".", "module root to lint (directory containing go.mod)")
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

	if len(res.Diags) == 0 {
		return
	}
	code := 64
	for _, d := range res.Diags {
		code |= ruleBits[d.Rule]
	}
	os.Exit(code)
}
