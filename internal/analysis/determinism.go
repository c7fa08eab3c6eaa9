package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the bit-identical-per-seed invariant at the source
// level: packages that execute inside the simulated cluster must derive
// every observable from the seed and the virtual clock. It forbids, in the
// configured packages:
//
//   - wall-clock time (time.Now/Since/Until/Sleep/After/Tick/NewTimer/
//     NewTicker/AfterFunc) — virtual time comes from sim.Engine;
//   - the global math/rand (and math/rand/v2) generators — randomness must
//     flow from a seeded *rand.Rand (rand.New/NewSource are fine);
//   - crypto/rand entirely;
//   - `go` statements — concurrency is the simulator's job;
//   - `range` over a map, unless the body is provably order-insensitive
//     (pure deletes, commutative accumulation, keyed stores, min/max
//     folds, or key collection followed by a sort in the same function) or
//     the site carries a //ubft:deterministic waiver.
type Determinism struct {
	// Packages maps import paths to true; subpackages are included.
	Packages map[string]bool
}

// DeterministicPackages is the default set: everything that runs inside
// the deterministic simulation (replicas, broadcast layers, apps, the
// shard/cluster assembly, the fault injectors, and the simulator itself).
var DeterministicPackages = []string{
	"repro/internal/app",
	"repro/internal/byz",
	"repro/internal/cluster",
	"repro/internal/consensus",
	"repro/internal/ctbcast",
	"repro/internal/memnode",
	"repro/internal/msgring",
	"repro/internal/shard",
	"repro/internal/sim",
	"repro/internal/simnet",
	"repro/internal/swmr",
	"repro/internal/tbcast",
	"repro/internal/trusted",
}

// NewDeterminism returns the pass over the default deterministic set.
func NewDeterminism() *Determinism {
	m := make(map[string]bool, len(DeterministicPackages))
	for _, p := range DeterministicPackages {
		m[p] = true
	}
	return &Determinism{Packages: m}
}

// Name implements Pass.
func (d *Determinism) Name() string { return "determinism" }

// Directive implements Pass: waivers read //ubft:deterministic <why>.
func (d *Determinism) Directive() string { return "deterministic" }

// forbiddenTimeFuncs are the wall-clock entry points of package time.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func (d *Determinism) applies(path string) bool {
	for p := range d.Packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Run implements Pass.
func (d *Determinism) Run(w *World) []Finding {
	var out []Finding
	for _, pkg := range w.Pkgs {
		if !d.applies(pkg.Path) {
			continue
		}
		out = append(out, d.checkPackage(w, pkg)...)
	}
	return out
}

func (d *Determinism) checkPackage(w *World, pkg *Package) []Finding {
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{Pos: w.Fset.Position(pos), Msg: fmt.Sprintf(format, args...)})
	}

	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := pkg.Info.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if forbiddenTimeFuncs[obj.Name()] {
						report(n.Pos(), "wall clock in deterministic package: time.%s (use the sim.Engine virtual clock)", obj.Name())
					}
				case "math/rand", "math/rand/v2":
					if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil &&
						!strings.HasPrefix(fn.Name(), "New") {
						report(n.Pos(), "global %s.%s in deterministic package (thread a seeded *rand.Rand instead)", obj.Pkg().Name(), obj.Name())
					}
				case "crypto/rand":
					report(n.Pos(), "crypto/rand in deterministic package: %s is seed-independent", obj.Name())
				}
			case *ast.GoStmt:
				report(n.Pos(), "go statement in deterministic package (schedule through the sim engine)")
			case *ast.RangeStmt:
				t := pkg.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if orderInsensitiveRange(pkg, f, n) {
					return true
				}
				report(n.For, "range over map with order-sensitive body (sort the keys, restructure, or waive with //ubft:deterministic)")
			}
			return true
		})
	}
	return out
}

// orderInsensitiveRange reports whether a range-over-map body cannot
// observe iteration order. Recognized shapes — every statement must be one
// of:
//
//   - delete(m, k)
//   - counter++ / counter-- / x += e / x |= e
//   - keyed store dst[k] = v where k is exactly the range key (distinct
//     keys commute)
//   - min/max fold: `if v < best { best = v }` (no else)
//   - s = append(s, ...) — accepted only if s is sorted later in the
//     enclosing function (sort.* or slices.Sort*)
//   - conditionals (optionally with a call-free `:=` init) whose branches
//     are themselves order-insensitive; `continue`
//   - `break` or `return <constants>` — an existence-check exit, accepted
//     only when the loop mutates nothing
//   - x = <constant>, reassignment of the key/value iteration variables,
//     and sim.Timer.Cancel (distinct cancellations commute)
func orderInsensitiveRange(pkg *Package, file *ast.File, rng *ast.RangeStmt) bool {
	keyIdent, _ := rng.Key.(*ast.Ident)
	valIdent, _ := rng.Value.(*ast.Ident)
	st := &rangeState{key: keyIdent, val: valIdent}
	for _, s := range rng.Body.List {
		if !orderInsensitiveStmt(pkg, s, st) {
			return false
		}
	}
	// An early exit (break, or a return of constants) makes the set of
	// visited keys order-dependent; that is fine for a pure existence
	// check, but not once anything in the loop mutates state — which
	// entries got mutated before the exit would depend on order.
	if st.exits && st.mutates {
		return false
	}
	for _, tgt := range st.appendTargets {
		if !sortedAfter(pkg, file, rng, tgt) {
			return false
		}
	}
	return true
}

// rangeState carries facts across the statements of one range body.
type rangeState struct {
	key           *ast.Ident
	val           *ast.Ident
	appendTargets []*ast.Ident
	mutates       bool // delete, keyed store, +=, |=, ++, --, append, Cancel
	exits         bool // break, or return of constants
}

func orderInsensitiveStmt(pkg *Package, st ast.Stmt, rs *rangeState) bool {
	switch st := st.(type) {
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				rs.mutates = true
				return true
			}
			return false
		}
		// sim.Timer.Cancel removes one event from the queue; cancelling
		// distinct timers commutes: the queue pops in (time, sequence)
		// order whatever its layout, and which recycled record a later
		// scheduling reuses is unobservable.
		if isTimerCancel(pkg, call) {
			rs.mutates = true
			return true
		}
		return false
	case *ast.IncDecStmt:
		_, ok := st.X.(*ast.Ident)
		rs.mutates = true
		return ok
	case *ast.AssignStmt:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		switch st.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN:
			rs.mutates = true
			return true
		case token.ASSIGN, token.DEFINE:
			// dst[k] = v with k the range key: distinct keys commute.
			if ix, ok := st.Lhs[0].(*ast.IndexExpr); ok {
				if id, ok := ix.Index.(*ast.Ident); ok && rs.key != nil &&
					pkg.Info.ObjectOf(id) == pkg.Info.ObjectOf(rs.key) {
					rs.mutates = true
					return true
				}
				return false
			}
			lhs, ok := st.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			// Reassigning the range key/value variable is iteration-local:
			// the loop overwrites it next pass anyway.
			if rs.isIterVar(pkg, lhs) {
				return callFree(st.Rhs[0])
			}
			// x = <constant>: the same value lands whichever key writes it.
			if isConstExpr(pkg, st.Rhs[0]) {
				return true
			}
			// s = append(s, ...): defer judgment to the sort check.
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" || len(call.Args) == 0 {
				return false
			}
			base, ok := call.Args[0].(*ast.Ident)
			if !ok || pkg.Info.ObjectOf(base) != pkg.Info.ObjectOf(lhs) {
				return false
			}
			rs.mutates = true
			rs.appendTargets = append(rs.appendTargets, lhs)
			return true
		}
		return false
	case *ast.BlockStmt:
		for _, s := range st.List {
			if !orderInsensitiveStmt(pkg, s, rs) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		switch st.Tok {
		case token.CONTINUE:
			return st.Label == nil
		case token.BREAK:
			rs.exits = true
			return st.Label == nil
		}
		return false
	case *ast.ReturnStmt:
		// Returning constants (or nothing) is an existence-check exit —
		// sound as long as the loop mutates nothing (checked at the end).
		for _, r := range st.Results {
			if !isConstExpr(pkg, r) {
				return false
			}
		}
		rs.exits = true
		return true
	case *ast.IfStmt:
		// min/max fold: `if <cmp> { best = v }`, no else, no init. Folding
		// into the iteration variable itself is iteration-local, not a
		// mutation.
		if tgt := minMaxFold(pkg, st); tgt != nil {
			if !rs.isIterVar(pkg, tgt) {
				rs.mutates = true
			}
			return true
		}
		// keyed guarded fold: `if cur, ok := m[e]; !ok || x > cur {
		// m[e] = x }` — a per-key max (or min) that commutes because the
		// guard is monotone in the stored value.
		if keyedFold(pkg, st) {
			rs.mutates = true
			return true
		}
		// Otherwise: conditionals over order-insensitive branches stay
		// order-insensitive (each key's effect is independent and
		// commutative regardless of which keys take the branch). A
		// call-free `:=` init (`if v, ok := m[k]; ok {...}`) binds locals
		// without side effects and is fine.
		if st.Init != nil {
			ini, ok := st.Init.(*ast.AssignStmt)
			if !ok || ini.Tok != token.DEFINE {
				return false
			}
			for _, r := range ini.Rhs {
				if !callFree(r) {
					return false
				}
			}
		}
		if !orderInsensitiveStmt(pkg, st.Body, rs) {
			return false
		}
		return st.Else == nil || orderInsensitiveStmt(pkg, st.Else, rs)
	}
	return false
}

// isTimerCancel reports whether call is sim.Timer.Cancel.
func isTimerCancel(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Cancel" {
		return false
	}
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "repro/internal/sim" {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Timer"
}

// callFree reports whether e contains no function calls (conversions
// included — lint-grade conservatism is fine here).
func callFree(e ast.Expr) bool {
	free := true
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			free = false
		}
		return free
	})
	return free
}

// isIterVar reports whether id denotes the range key or value variable.
func (rs *rangeState) isIterVar(pkg *Package, id *ast.Ident) bool {
	obj := pkg.Info.ObjectOf(id)
	return (rs.key != nil && obj == pkg.Info.ObjectOf(rs.key)) ||
		(rs.val != nil && obj == pkg.Info.ObjectOf(rs.val))
}

// isConstExpr reports whether e evaluates to a compile-time constant
// (literal, named const, true/false).
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// minMaxFold recognizes `if v < best { best = v }` (no else, no init) and
// returns the fold target, or nil.
func minMaxFold(pkg *Package, st *ast.IfStmt) *ast.Ident {
	if st.Else != nil || st.Init != nil || len(st.Body.List) != 1 {
		return nil
	}
	asn, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || asn.Tok != token.ASSIGN || len(asn.Lhs) != 1 || len(asn.Rhs) != 1 {
		return nil
	}
	cmp, ok := st.Cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch cmp.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return nil
	}
	tgt, ok := asn.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		if id, ok := side.(*ast.Ident); ok && pkg.Info.ObjectOf(id) == pkg.Info.ObjectOf(tgt) {
			return tgt
		}
	}
	return nil
}

// keyedFold recognizes the commutative per-key fold
//
//	if cur, ok := m[e]; !ok || <cmp involving cur> { m[e] = x }
//
// (same m[e] in init and body, call-free, single-statement body, no else).
func keyedFold(pkg *Package, st *ast.IfStmt) bool {
	if st.Else != nil || len(st.Body.List) != 1 {
		return false
	}
	ini, ok := st.Init.(*ast.AssignStmt)
	if !ok || ini.Tok != token.DEFINE || len(ini.Lhs) != 2 || len(ini.Rhs) != 1 {
		return false
	}
	src, ok := ini.Rhs[0].(*ast.IndexExpr)
	if !ok || !callFree(src) {
		return false
	}
	cur, ok := ini.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	// The guard must compare against the stored value (so the winning
	// write is the same whichever order entries arrive).
	curObj := pkg.Info.ObjectOf(cur)
	guarded := false
	ast.Inspect(st.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.ObjectOf(id) == curObj {
			guarded = true
		}
		return !guarded
	})
	if !guarded || !callFree(st.Cond) {
		return false
	}
	asn, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || asn.Tok != token.ASSIGN || len(asn.Lhs) != 1 || len(asn.Rhs) != 1 {
		return false
	}
	dst, ok := asn.Lhs[0].(*ast.IndexExpr)
	if !ok || !callFree(asn.Rhs[0]) {
		return false
	}
	return types.ExprString(dst) == types.ExprString(src)
}

// sortedAfter reports whether ident tgt is passed to a sort.* or
// slices.Sort* call positioned after the range statement, anywhere in the
// enclosing file scope (lint-grade: textual order within the file).
func sortedAfter(pkg *Package, file *ast.File, rng *ast.RangeStmt, tgt *ast.Ident) bool {
	obj := pkg.Info.ObjectOf(tgt)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		qual, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pkg.Info.Uses[qual].(*types.PkgName)
		if !ok {
			return true
		}
		ip := pn.Imported().Path()
		if ip != "sort" && ip != "slices" {
			return true
		}
		if ip == "slices" && !strings.HasPrefix(sel.Sel.Name, "Sort") {
			return true
		}
		for _, a := range call.Args {
			if id, ok := a.(*ast.Ident); ok && pkg.Info.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
