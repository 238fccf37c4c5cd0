package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzParseAllows drives arbitrary text through the //fhdnn:allow
// directive parser and the suppression matcher. Whatever the directive
// says — unknown rules, unicode, missing reasons, trailing junk, nested
// comment markers — parsing must not panic, every parsed directive must
// carry a real position, and applySuppressions must classify it either
// as usable or as a malformed/stale finding without inventing findings
// of other kinds.
func FuzzParseAllows(f *testing.F) {
	f.Add("determinism benchmark-only timing helper")
	f.Add("taintloop")
	f.Add("bogus-rule some reason")
	f.Add("hotalloc amortized append // trailing comment")
	f.Add("float64 précision déterministe")
	f.Add("  \t weird junk")
	f.Add(`taintindex reason with "quotes" and \ backslashes`)
	f.Fuzz(func(t *testing.T, dir string) {
		if strings.ContainsAny(dir, "\n\r") {
			t.Skip("directives are single-line comments")
		}
		src := "package p\n\n//fhdnn:allow " + dir + "\nfunc F() {}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip("input breaks Go comment lexing")
		}
		ds := parseAllows(fset, file)
		for _, d := range ds {
			if d.line <= 0 || d.pos.Filename == "" {
				t.Fatalf("directive without position: %+v", d)
			}
			if strings.ContainsAny(d.rule, " \t") {
				t.Fatalf("rule name %q contains whitespace", d.rule)
			}
			if strings.Contains(d.reason, "//") {
				t.Fatalf("reason %q retains a trailing comment", d.reason)
			}
		}

		enabled := make(map[string]bool)
		for _, r := range AllRules {
			enabled[r] = true
		}
		p := &pkg{Files: []*ast.File{file}}
		active, suppressed, bad := applySuppressions(fset, p, nil, enabled)
		if len(active) != 0 || len(suppressed) != 0 {
			t.Fatalf("no findings went in, yet active=%d suppressed=%d", len(active), len(suppressed))
		}
		// With no findings to excuse, every well-formed directive must be
		// reported stale and every malformed one reported malformed — one
		// allow finding per parsed directive, each fully positioned.
		if len(bad) != len(ds) {
			t.Fatalf("%d directives produced %d allow findings", len(ds), len(bad))
		}
		for _, b := range bad {
			if b.Rule != RuleAllow {
				t.Fatalf("unexpected rule %q from directive auditing", b.Rule)
			}
			if b.Line <= 0 || b.Col <= 0 || b.File == "" {
				t.Fatalf("allow finding without position: %+v", b)
			}
		}
	})
}
