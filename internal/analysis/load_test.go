package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// Tests for the loader's build-tag handling. The analyzer type-checks one
// view of the module — build.Default, i.e. the release build without
// fhdnndebug set — and every rule runs over exactly that
// view. These tests pin both halves of that contract: tag-excluded files
// must not leak findings into the sweep, and the release-view file that
// replaces them must still be seen (so a gap can't hide behind a tag).

// writeModule materializes files (relative path → source) as a throwaway
// module rooted at a temp dir and returns the root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module probe\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// loadedFiles loads one package through the real loader and returns the
// base names of the files it parsed.
func loadedFiles(t *testing.T, root, importPath string) []string {
	t.Helper()
	l, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.load(importPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range p.Files {
		names = append(names, filepath.Base(l.fset.Position(f.Pos()).Filename))
	}
	return names
}

func TestLoaderPicksReleaseViewOfTaggedFiles(t *testing.T) {
	// kernel.go and kernel_debug.go are the repo's fhdnndebug pattern:
	// two implementations of one symbol, selected by tag. The loader must
	// take the !fhdnndebug file plus the untagged file and nothing else —
	// the fhdnndebug files belong to a build the analyzer does not model.
	root := writeModule(t, map[string]string{
		"internal/tensor/tensor.go":       "package tensor\n\nfunc Dot(a, b []float32) float32 { return Kernel(a, b) }\n",
		"internal/tensor/kernel.go":       "//go:build !fhdnndebug\n\npackage tensor\n\nfunc Kernel(a, b []float32) float32 {\n\tvar s float32\n\tfor i := range a {\n\t\ts += a[i] * b[i]\n\t}\n\treturn s\n}\n",
		"internal/tensor/kernel_debug.go": "//go:build fhdnndebug\n\npackage tensor\n\nfunc Kernel(a, b []float32) float32 { return 0 }\n",
		"internal/tensor/guard_debug.go":  "//go:build fhdnndebug\n\npackage tensor\n\nfunc init() { panic(\"debug guard\") }\n",
	})
	got := loadedFiles(t, root, "probe/internal/tensor")
	want := map[string]bool{"tensor.go": true, "kernel.go": true}
	if len(got) != len(want) {
		t.Fatalf("loaded %v, want exactly %v", got, []string{"kernel.go", "tensor.go"})
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("loaded tag-gated file %s", name)
		}
	}
}

func TestLoaderSkipsTestFiles(t *testing.T) {
	// _test.go files are not part of the linted view (ImportDir returns
	// them separately); a hazard planted there must neither load nor
	// break type-checking of the package proper.
	root := writeModule(t, map[string]string{
		"internal/compress/c.go":      "package compress\n\nconst Version = 1\n",
		"internal/compress/c_test.go": "package compress\n\nfunc brokenOnPurpose() { undefinedSymbol() }\n",
	})
	got := loadedFiles(t, root, "probe/internal/compress")
	if len(got) != 1 || got[0] != "c.go" {
		t.Fatalf("loaded %v, want [c.go]", got)
	}
}

func TestSweepFollowsReleaseView(t *testing.T) {
	// End-to-end over Run: the same panic on a short frame exists in both
	// the fhdnndebug file and the release file. Only the release copy may
	// be reported — exactly one finding, attributed to decode.go — proving
	// rules neither double-count tag twins nor silently skip the
	// release-view file.
	root := writeModule(t, map[string]string{
		"internal/compress/decode.go":       "//go:build !fhdnndebug\n\npackage compress\n\nfunc Decode(data []byte) byte {\n\tif len(data) < 4 {\n\t\tpanic(\"short frame\")\n\t}\n\treturn data[0]\n}\n",
		"internal/compress/decode_debug.go": "//go:build fhdnndebug\n\npackage compress\n\nfunc Decode(data []byte) byte {\n\tif len(data) < 4 {\n\t\tpanic(\"short frame\")\n\t}\n\treturn data[0]\n}\n",
	})
	res, err := Run(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(res.Diags), res.Diags)
	}
	if base := filepath.Base(res.Diags[0].File); base != "decode.go" {
		t.Errorf("finding attributed to %s, want decode.go", base)
	}
}

func TestSweepIgnoresHazardBehindTag(t *testing.T) {
	// The inverse: a hazard that exists only under fhdnndebug is invisible
	// to the release-view sweep. This is the documented blind spot — no
	// sweep reads the fhdnndebug files (the tensor aliasing guard, which
	// make debugguard exercises at run time), and the default view is not
	// widened to them — and this test keeps the behavior deliberate
	// rather than accidental.
	root := writeModule(t, map[string]string{
		"internal/compress/decode.go":      "package compress\n\nfunc Size(data []byte) int {\n\tif len(data) < 4 {\n\t\treturn 0\n\t}\n\treturn int(data[0]) | int(data[1])<<8\n}\n",
		"internal/compress/check_debug.go": "//go:build fhdnndebug\n\npackage compress\n\nfunc Check(data []byte) {\n\tif Size(data) == 0 {\n\t\tpanic(\"short frame\")\n\t}\n}\n",
	})
	res, err := Run(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("tag-gated hazard leaked into the release sweep: %v", res.Diags)
	}
}

func TestExpandSkipsTestdataAndHiddenDirs(t *testing.T) {
	// Fixture corpora live under testdata/src and deliberately contain
	// findings; pattern expansion must never descend into them (or into
	// hidden/_ dirs), or every self-sweep would drown in fixture noise.
	root := writeModule(t, map[string]string{
		"internal/ok/ok.go":               "package ok\n\nconst A = 1\n",
		"internal/ok/testdata/src/x/x.go": "package x\n\nfunc Decode(b []byte) []int { return make([]int, int(b[0])) }\n",
		"internal/.hidden/h.go":           "package hidden\n\nconst B = 2\n",
		"internal/_disabled/d.go":         "package disabled\n\nconst C = 3\n",
	})
	l, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "probe/internal/ok" {
		t.Fatalf("expand = %v, want [probe/internal/ok]", paths)
	}
}
