package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package loading for the analyzer. The repo is stdlib-only, so every
// import is either a module-local package (type-checked from source by
// this loader, recursively) or a standard-library package (delegated to
// the toolchain's source importer). No external tooling — in particular
// no golang.org/x/tools — is involved; this is go/parser + go/types end
// to end, which is exactly the dependency budget of the repo itself.

// pkg is one loaded, type-checked package.
type pkg struct {
	// Rel is the module-relative path ("internal/tensor", "" for the
	// module root package). Rules are scoped by Rel so fixtures under any
	// module name exercise the same path logic as the real repo.
	Rel   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loader discovers, parses and type-checks module packages.
type loader struct {
	root    string // absolute module root (dir containing go.mod)
	module  string // module path from go.mod
	fset    *token.FileSet
	std     types.Importer  // source importer for the standard library
	pkgs    map[string]*pkg // by import path
	loading map[string]bool // cycle guard
	ctxt    build.Context
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &loader{
		root:    abs,
		module:  mod,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*pkg),
		loading: make(map[string]bool),
		ctxt:    build.Default,
	}, nil
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: read go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}

// Import implements types.Importer: module-local packages are loaded from
// source by this loader, everything else falls through to the standard
// library source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the module package with the given import
// path (memoized).
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles { // build-tag filtered, non-test
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var typeErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, typeErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	p := &pkg{Rel: rel, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// expand resolves package patterns ("./...", "./internal/flnet", "...")
// to module import paths, in sorted order. Directories named testdata and
// hidden directories are never matched.
func (l *loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		if _, err := l.ctxt.ImportDir(dir, 0); err != nil {
			if _, nogo := err.(*build.NoGoError); nogo {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		path := l.module
		if rel != "." {
			path = l.module + "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			base := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if base == "" {
				base = "."
			}
			start := filepath.Join(l.root, filepath.FromSlash(base))
			err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return add(p)
			})
			if err != nil {
				return nil, err
			}
		} else {
			if err := add(filepath.Join(l.root, filepath.FromSlash(pat))); err != nil {
				return nil, err
			}
		}
	}
	sort.Strings(out)
	return out, nil
}
