package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture corpus under testdata/src is a self-contained module
// ("fixture") whose files carry expectation comments:
//
//	// want <rule> "<message regexp>"       a finding on this line
//
// The corpus test runs the full analyzer over the corpus and requires an
// exact one-to-one match between expectations and diagnostics — no
// missing findings, no extras, no drifted positions.

const fixtureRoot = "testdata/src"

type expectation struct {
	file string // relative to fixtureRoot, slash-separated
	line int
	rule string
	re   *regexp.Regexp
}

var expectRx = regexp.MustCompile(`// want ([a-z0-9-]+) "((?:[^"\\]|\\.)*)"`)

func loadExpectations(t *testing.T) []*expectation {
	t.Helper()
	var out []*expectation
	err := filepath.WalkDir(fixtureRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(fixtureRoot, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range expectRx.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad expectation regexp %q: %v", rel, i+1, m[2], err)
				}
				out = append(out, &expectation{
					file: filepath.ToSlash(rel), line: i + 1, rule: m[1], re: re,
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no expectations found in fixture corpus")
	}
	return out
}

// relFile maps a diagnostic's absolute file path back to a
// corpus-relative slash path.
func relFile(t *testing.T, file string) string {
	t.Helper()
	abs, err := filepath.Abs(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(abs, file)
	if err != nil {
		t.Fatalf("diagnostic outside corpus: %s", file)
	}
	return filepath.ToSlash(rel)
}

func matchDiags(t *testing.T, diags []Diagnostic, expects []*expectation) {
	t.Helper()
	used := make([]bool, len(expects))
	for _, d := range diags {
		if d.Col <= 0 || d.Line <= 0 {
			t.Errorf("diagnostic without position: %+v", d)
		}
		file := relFile(t, d.File)
		found := false
		for i, e := range expects {
			if used[i] || e.file != file || e.line != d.Line || e.rule != d.Rule {
				continue
			}
			if !e.re.MatchString(d.Message) {
				t.Errorf("%s:%d: %s diagnostic message %q does not match expectation %q",
					file, d.Line, d.Rule, d.Message, e.re)
			}
			used[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("unexpected diagnostic %s:%d:%d: %s: %s", file, d.Line, d.Col, d.Rule, d.Message)
		}
	}
	for i, e := range expects {
		if !used[i] {
			t.Errorf("%s:%d: expected %s diagnostic matching %q, got none", e.file, e.line, e.rule, e.re)
		}
	}
}

func TestFixtureCorpus(t *testing.T) {
	res, err := Run(fixtureRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	matchDiags(t, res.Diags, loadExpectations(t))
}

// TestDiagnosticString pins the output format TestModuleIsClean reports
// in, the one editors jump from (file:line:col: rule: message).
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "wire-error", File: "x.go", Line: 3, Col: 7, Message: "boom"}
	if got, want := d.String(), "x.go:3:7: wire-error: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestCleanPackageHasNoFindings guards against the analyzer inventing
// findings in sanctioned code: the fixture's tensor pool file and the
// invariant helper are clean by construction.
func TestCleanPackageHasNoFindings(t *testing.T) {
	res, err := Run(fixtureRoot, "./internal/invariant")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 0 {
		t.Errorf("invariant package should be clean, got %v", res.Diags)
	}
}

// TestModuleIsClean is the analyzer's sweep of this module: every
// non-test file of every package, under every rule. A finding fails the
// test, printed where an editor can jump to it.
func TestModuleIsClean(t *testing.T) {
	res, err := Run("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages == 0 {
		t.Fatal("the sweep found no packages")
	}
	for _, d := range res.Diags {
		t.Error(d)
	}
}
