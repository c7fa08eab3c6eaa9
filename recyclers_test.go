package ubft

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// recyclerRow is what pays for a recycler: the sim-* workload whose
// allocs_per_op it saves most of, and by how much, in percent, that rises
// with the recycler switched off at its own call site (seed 1, 3 s per
// workload; the audit in CHANGES.md has every site on all four workloads).
type recyclerRow struct {
	workload string
	delta    float64
}

// frameFreeList is the row of every handler and client that gives a frame
// back to the process's free list of frames (router.Release).
var frameFreeList = recyclerRow{"sim-flip-slow", 222.7}

// recyclerRows holds the measured row behind every recycler of the
// program: a record free list (wire.FreeList), a block that frames or
// records are carved from (wire.Slab, wire.Carve) and the process's free
// list of frames (router.Release). A site is keyed by its package and the
// field or function that names it. A recycler lands only with a row, and
// a row pays only if its delta is above half the benchmark's 5%
// allocs_per_op bound.
var recyclerRows = map[string]recyclerRow{
	"app.LockTable.free":          {"sim-shard4-txn", 12.4},
	"app.VersionedStore.newChain": {"sim-shard4-txn", 28.1},

	"consensus.Replica.freeSlots":    {"sim-flip-slow", 7.4},
	"consensus.Replica.freeRequests": {"sim-flip-fast", 7.4},
	"consensus.Replica.slot":         {"sim-flip-slow", 18.9},
	"consensus.Replica.addShare":     {"sim-flip-slow", 18.8},
	"consensus.Replica.request":      {"sim-flip-slow", 6.3},
	"consensus.Replica.batchSlab":    {"sim-shard4-txn", 4.5},
	"consensus.encodeBatch":          {"sim-shard4-txn", 4.5}, // the batch slab's container
	"consensus.decodeBatch":          {"sim-shard4-txn", 12.8},
	"consensus.Client.free":          {"sim-kv-read90", 83.6},
	"consensus.Client.slab":          {"sim-kv-read90", 41.4},
	"consensus.Client.onRPC":         frameFreeList,
	"consensus.resTally.add":         frameFreeList,
	"consensus.tallies.reset":        frameFreeList,
	"consensus.Replica.onDirect":     frameFreeList,

	"ctbcast.Group.slowFree":     {"sim-flip-slow", 1355.2},
	"ctbcast.Group.fallbackFree": {"sim-flip-fast", 40.2},

	"msgring.Sender.slab": {"sim-flip-fast", 392.7},
	"router.free.slab":    {"sim-kv-read90", 41.3},
	"tbcast.AckHub.onAck": frameFreeList,

	"shard.Client.plans":    {"sim-shard4-txn", 4.0},
	"shard.Client.scatters": {"sim-shard4-txn", 13.2},
	"shard.Client.txs":      {"sim-shard4-txn", 7.5},
	"shard.Client.fanouts":  {"sim-shard4-txn", 9.4},

	"swmr.Store.free":       {"sim-flip-slow", 5421.5},
	"swmr.Store.onResponse": frameFreeList,
	"swmr.Store.retire":     frameFreeList,
	"swmr.Store.answered":   frameFreeList,

	"xcrypto.Signer.slab": {"sim-flip-slow", 199.8},
	"xcrypto.Signer.jobs": {"sim-flip-slow", 6.8},
}

// TestEveryRecyclerHasAMeasuredRow fails on a recycler of the non-test
// sources that has no row in recyclerRows, on a row that does not pay, and
// on a row that names no recycler.
func TestEveryRecyclerHasAMeasuredRow(t *testing.T) {
	sites := recyclerSites(t)
	for _, site := range sites {
		if _, ok := recyclerRows[site]; !ok {
			t.Errorf("%s recycles with no measured row: switch it off on a scratch copy, measure the four sim-* workloads and add the row that pays for it", site)
		}
	}
	for site, row := range recyclerRows {
		if !slices.Contains(sites, site) {
			t.Errorf("recycler row %s names no recycler", site)
		}
		if !slices.Contains([]string{"sim-flip-fast", "sim-flip-slow", "sim-kv-read90", "sim-shard4-txn"}, row.workload) || row.delta <= 2.5 {
			t.Errorf("recycler %s: %+.1f%% on %q does not pay: a row needs more than +2.5%% on a sim-* workload", site, row.delta, row.workload)
		}
	}
}

// recyclerSites returns the key of every field, variable or function of the
// non-test sources that names wire.FreeList, wire.Slab, wire.Carve or
// router.Release, once each.
func recyclerSites(t *testing.T) []string {
	var sites []string
	add := func(key string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if ok && (x.Name == "wire" && (sel.Sel.Name == "FreeList" || sel.Sel.Name == "Slab" || sel.Sel.Name == "Carve") ||
				x.Name == "router" && sel.Sel.Name == "Release") && !slices.Contains(sites, key) {
				sites = append(sites, key)
			}
			return true
		})
	}
	// fields keys each field of a struct type apart; any other type is one
	// site.
	var fields func(key string, typ ast.Expr)
	fields = func(key string, typ ast.Expr) {
		st, ok := typ.(*ast.StructType)
		if !ok {
			add(key, typ)
			return
		}
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				fields(key+"."+name.Name, f.Type)
			}
			if len(f.Names) == 0 {
				add(key, f.Type)
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + decl.Name.Name
				if decl.Recv != nil {
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch idx := recv.(type) {
					case *ast.IndexExpr:
						recv = idx.X
					case *ast.IndexListExpr:
						recv = idx.X
					}
					key = pkg + "." + recv.(*ast.Ident).Name + "." + decl.Name.Name
				}
				add(key, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						fields(pkg+"."+spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if spec.Type != nil {
								fields(pkg+"."+name.Name, spec.Type)
							}
						}
						for _, v := range spec.Values {
							add(pkg+"."+spec.Names[0].Name, v)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) < 10 {
		t.Fatalf("found %d recyclers: not the module tree", len(sites))
	}
	return sites
}
