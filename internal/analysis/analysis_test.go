package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The module world is loaded once per test binary: one cached `go list
// -export` plus a from-source typecheck of every module package.
var (
	worldOnce sync.Once
	theWorld  *World
	worldErr  error
)

func loadWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		theWorld, worldErr = Load("../..")
	})
	if worldErr != nil {
		t.Fatalf("loading module tree: %v", worldErr)
	}
	return theWorld
}

// fixturePkg type-checks one testdata fixture package against the loaded
// world's importer.
func fixturePkg(t *testing.T, w *World, dir, importPath string) *Package {
	t.Helper()
	pkg, err := w.CheckDir(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	return pkg
}

// fixtureWorld wraps packages in a World sharing the real Fset/importer
// state, so passes and ByPath lookups work unchanged.
func fixtureWorld(w *World, pkgs ...*Package) *World {
	fw := &World{Fset: w.Fset, ModRoot: w.ModRoot, byPath: make(map[string]*Package)}
	for _, p := range pkgs {
		fw.Pkgs = append(fw.Pkgs, p)
		fw.byPath[p.Path] = p
	}
	return fw
}

// wantRE matches expectation comments in fixtures: // want "substring".
var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

type wantMark struct {
	file   string
	line   int
	substr string
	hit    bool
}

func collectWants(w *World, pkgs ...*Package) []*wantMark {
	var out []*wantMark
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if m := wantRE.FindStringSubmatch(c.Text); m != nil {
						pos := w.Fset.Position(c.Pos())
						out = append(out, &wantMark{file: pos.Filename, line: pos.Line, substr: m[1]})
					}
				}
			}
		}
	}
	return out
}

// checkFixture applies the passes to the fixture world and verifies the
// findings match the fixtures' want marks exactly (every mark hit, no
// finding unmarked) and that exactly wantWaivers waivers took effect.
func checkFixture(t *testing.T, w *World, passes []Pass, fixtures []*Package, wantWaivers int) {
	t.Helper()
	res := Apply(fixtureWorld(w, fixtures...), passes, Options{CheckUnused: true})
	wants := collectWants(w, fixtures...)
	for _, f := range res.Findings {
		matched := false
		for _, wm := range wants {
			if !wm.hit && wm.file == f.Pos.Filename && wm.line == f.Pos.Line && strings.Contains(f.Msg, wm.substr) {
				wm.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, wm := range wants {
		if !wm.hit {
			t.Errorf("%s:%d: expected a finding containing %q, got none", wm.file, wm.line, wm.substr)
		}
	}
	if res.Waivers != wantWaivers {
		t.Errorf("waivers in effect = %d, want %d", res.Waivers, wantWaivers)
	}
}

// TestDeterminismFixture type-checks the fixture under a consensus
// subpackage import path, so the default pass configuration (not a test
// override) is what flags the planted time.Now().
func TestDeterminismFixture(t *testing.T) {
	w := loadWorld(t)
	pkg := fixturePkg(t, w, "det", "repro/internal/consensus/lintfixture")
	checkFixture(t, w, []Pass{NewDeterminism()}, []*Package{pkg}, 1)
}

func TestPoolSafetyFixture(t *testing.T) {
	w := loadWorld(t)
	pkg := fixturePkg(t, w, "pool", "repro/fixture/pool")
	checkFixture(t, w, []Pass{NewPoolSafety()}, []*Package{pkg}, 1)
}

func TestTagRegistryFixture(t *testing.T) {
	w := loadWorld(t)
	pkg := fixturePkg(t, w, "tags", "repro/fixture/tags")
	checkFixture(t, w, []Pass{NewTagRegistry()}, []*Package{pkg}, 1)
}

// TestByzCrossCheckFixture drives the registry cross-check against a byz
// double whose ForgeReads skips a marked client-reply tag and whose
// CorruptVotes references none. The findings land on the registry file,
// so they are asserted directly rather than via want marks.
func TestByzCrossCheckFixture(t *testing.T) {
	w := loadWorld(t)
	wirePkg := w.ByPath("repro/internal/wire")
	if wirePkg == nil {
		t.Fatal("repro/internal/wire not in loaded world")
	}
	const byzPath = "repro/fixture/byzbad"
	pkg := fixturePkg(t, w, "byzbad", byzPath)
	pass := NewTagRegistry()
	pass.ByzPath = byzPath
	res := Apply(fixtureWorld(w, wirePkg, pkg), []Pass{pass}, Options{})
	wantSubstrs := []string{
		"client-reply tag wire.TagReadResponse is not handled by the byz ForgeReads policy",
		"CorruptVotes policy references no client-reply tag",
	}
	for _, want := range wantSubstrs {
		found := false
		for _, f := range res.Findings {
			if strings.Contains(f.Msg, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("expected a finding containing %q, got %v", want, res.Findings)
		}
	}
	if len(res.Findings) != len(wantSubstrs) {
		t.Errorf("got %d findings, want %d: %v", len(res.Findings), len(wantSubstrs), res.Findings)
	}
}

// TestAppAgnosticFixture type-checks the fixture under the real shard
// import path (the fixture world contains only the fixture, so there is
// no collision), so the default gate — exactly what `make lint` runs —
// is what catches the planted app.RMGet.
func TestAppAgnosticFixture(t *testing.T) {
	w := loadWorld(t)
	pkg := fixturePkg(t, w, "appgate", "repro/internal/shard")
	checkFixture(t, w, []Pass{NewAppAgnostic()}, []*Package{pkg}, 1)
}

// TestAppAgnosticConsensusFixture does the same for the consensus gate: a
// replica reaching for the transaction vocabulary is flagged, the
// replica-side capabilities are not.
func TestAppAgnosticConsensusFixture(t *testing.T) {
	w := loadWorld(t)
	pkg := fixturePkg(t, w, "consgate", "repro/internal/consensus")
	checkFixture(t, w, []Pass{NewConsensusAppAgnostic()}, []*Package{pkg}, 0)
}

func TestDocLintFixture(t *testing.T) {
	w := loadWorld(t)
	nodoc := fixturePkg(t, w, "nodoc", "repro/fixture/nodoc")
	waived := fixturePkg(t, w, "docwaived", "repro/fixture/docwaived")
	pass := &DocLint{Prefix: "repro/fixture/"}
	checkFixture(t, w, []Pass{pass}, []*Package{nodoc, waived}, 1)
}

// TestWaiverFindings verifies the framework polices its own escape hatch:
// a justification-free waiver and an unused waiver are both findings.
func TestWaiverFindings(t *testing.T) {
	w := loadWorld(t)
	pkg := fixturePkg(t, w, "waivers", "repro/fixture/waivers")
	res := Apply(fixtureWorld(w, pkg), nil, Options{CheckUnused: true})
	wantSubstrs := []string{
		"ubft:doclint waiver has no justification",
		"unused ubft:deterministic waiver",
	}
	for _, want := range wantSubstrs {
		found := false
		for _, f := range res.Findings {
			if strings.Contains(f.Msg, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("expected a finding containing %q, got %v", want, res.Findings)
		}
	}
	if len(res.Findings) != len(wantSubstrs) {
		t.Errorf("got %d findings, want %d: %v", len(res.Findings), len(wantSubstrs), res.Findings)
	}
	if res.Waivers != 0 {
		t.Errorf("waivers in effect = %d, want 0", res.Waivers)
	}
}

// TestRepoLintsClean is the suite's anchor: the tree must lint clean
// under the full pass suite, and carry exactly WaiverBudget reviewed
// waivers — the budget moves only when a waiver is deliberately added or
// removed.
func TestRepoLintsClean(t *testing.T) {
	w := loadWorld(t)
	res := Apply(w, AllPasses(), Options{CheckUnused: true})
	for _, f := range res.Findings {
		t.Errorf("unexpected finding: %s", f)
	}
	if res.Waivers != WaiverBudget {
		t.Errorf("waivers in effect = %d, want WaiverBudget = %d (update the budget alongside any reviewed waiver change)",
			res.Waivers, WaiverBudget)
	}
}
