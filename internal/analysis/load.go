package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked module package: parsed files (with comments,
// for waiver directives and doc lints), the types.Package and the full
// types.Info the passes query.
type Package struct {
	Path  string // import path, e.g. repro/internal/consensus
	Name  string // package identifier
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// World is a loaded module tree: every package named by the load patterns,
// plus an importer that can resolve any dependency (stdlib included) from
// compiler export data, so fixture packages under testdata can be
// type-checked against the real tree.
type World struct {
	Fset    *token.FileSet
	ModRoot string
	Pkgs    []*Package // module packages in dependency order

	exports map[string]string // import path -> export data file
	imp     types.Importer
	byPath  map[string]*Package
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// stdExtras are always loaded alongside the module patterns so testdata
// fixture packages can import them even when the tree itself does not.
var stdExtras = []string{"time", "math/rand", "math/rand/v2", "crypto/rand", "sort", "slices", "bytes"}

// Load runs `go list -export -deps` for the patterns (default ./...) in
// root, then parses and type-checks every non-test source of every module
// package. Dependencies are imported from compiler export data rather than
// re-checked from source, so a full load costs one cached build.
func Load(root string, patterns ...string) (*World, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard,Module,Error"}
	args = append(args, patterns...)
	args = append(args, stdExtras...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("analysis: go list: %s", msg)
	}

	w := &World{
		Fset:    token.NewFileSet(),
		ModRoot: root,
		exports: make(map[string]string),
		byPath:  make(map[string]*Package),
	}
	var mod []listPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("analysis: go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			w.exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			mod = append(mod, p)
			if w.ModRoot == "" || w.ModRoot == "." {
				w.ModRoot = p.Module.Dir
			}
		}
	}

	w.imp = importer.ForCompiler(w.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := w.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})

	sizes := types.SizesFor("gc", runtime.GOARCH)
	for _, p := range mod {
		pkg, err := w.check(p, sizes)
		if err != nil {
			return nil, err
		}
		w.Pkgs = append(w.Pkgs, pkg)
		w.byPath[pkg.Path] = pkg
	}
	sort.Slice(w.Pkgs, func(i, j int) bool { return w.Pkgs[i].Path < w.Pkgs[j].Path })
	return w, nil
}

// check parses and type-checks one listed package.
func (w *World) check(p listPkg, sizes types.Sizes) (*Package, error) {
	var files []*ast.File
	for _, g := range p.GoFiles {
		f, err := parser.ParseFile(w.Fset, filepath.Join(p.Dir, g), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	var firstErr error
	cfg := &types.Config{
		Importer: w.imp,
		Sizes:    sizes,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tp, _ := cfg.Check(p.ImportPath, w.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %v", p.ImportPath, firstErr)
	}
	return &Package{Path: p.ImportPath, Name: p.Name, Dir: p.Dir, Files: files, Types: tp, Info: info}, nil
}

// ByPath returns a loaded module package, or nil.
func (w *World) ByPath(path string) *Package { return w.byPath[path] }

// CheckDir parses and type-checks an out-of-tree directory (a testdata
// fixture package) under the given import path, resolving its imports
// against the loaded world. The package is NOT added to w.Pkgs.
func (w *World) CheckDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(w.Fset, filepath.Join(dir, n), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	info := newInfo()
	var firstErr error
	cfg := &types.Config{
		Importer: w.imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tp, _ := cfg.Check(importPath, w.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %v", importPath, firstErr)
	}
	return &Package{Path: importPath, Name: files[0].Name.Name, Dir: dir, Files: files, Types: tp, Info: info}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
