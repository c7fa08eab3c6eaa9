package ubft

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyFiguresImportInternalBench keeps internal/bench the paper's figure
// harness and nothing else: besides itself, only the figure CLI
// (cmd/ubft-bench) and the root Go benchmarks (bench_test.go) may import it,
// so moving the figures into bench/ and deleting internal/bench touches
// nothing outside those three.
func TestOnlyFiguresImportInternalBench(t *testing.T) {
	allowed := func(path string) bool {
		return path == "bench_test.go" || filepath.Dir(path) == filepath.Join("internal", "bench") || filepath.Dir(path) == filepath.Join("cmd", "ubft-bench")
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/bench" && !allowed(path) {
				t.Errorf("%s imports %s: only the figure harness may", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed %d Go files: not the module tree", files)
	}
}
