package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafety enforces the lifetime rules of the zero-copy wire surfaces and
// the router's frame free list, in every module package:
//
//   - A result of wire.Reader.BytesView/RawView/SpanView aliases the
//     reader's buffer. It must not be stored into a struct field, map/slice element
//     or package-level variable, and must not be returned, without an
//     explicit copy (append/bytes.Clone/string conversion). Passing a view
//     down a call chain is allowed — the callee owns the judgment there.
//     Exception: when the reader itself is caller-owned — it arrived as a
//     parameter/receiver, or was built by wire.NewReader over bytes that
//     reference a parameter — returning a view hands the caller an alias
//     of memory the caller already owns, which extends no lifetime. That
//     is the decode-borrow contract (key extractors, decodeRequest).
//     Stores into fields/maps/globals are flagged either way: they outlive
//     the call no matter who owns the buffer.
//   - A frame passed to router.Release may be handed out by the next
//     router.Frame of its length, so a variable released by a
//     non-deferred call must not be read after that call. A release in a
//     block that then returns covers the rest of that block only, a
//     release in one branch of an if, switch or select does not cover the
//     other branches, and assigning the variable anew ends the release.
//
// The tracking is per-function and flow-lite (single forward scan):
// re-assigning a tainted variable from a clean expression clears it.
// Waivers read //ubft:poolsafety <why>.
type PoolSafety struct {
	// WirePath is the import path of the wire package.
	WirePath string
}

// routerPath is the import path of the package whose Release the pass
// tracks.
const routerPath = "repro/internal/router"

// NewPoolSafety returns the pass bound to repro/internal/wire.
func NewPoolSafety() *PoolSafety { return &PoolSafety{WirePath: "repro/internal/wire"} }

// Name implements Pass.
func (p *PoolSafety) Name() string { return "poolsafety" }

// Directive implements Pass.
func (p *PoolSafety) Directive() string { return "poolsafety" }

// Run implements Pass.
func (p *PoolSafety) Run(w *World) []Finding {
	var out []Finding
	for _, pkg := range w.Pkgs {
		for _, f := range pkg.Files {
			// Each function (and each function literal) is an independent
			// analysis unit.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						out = append(out, p.checkFunc(w, pkg, n.Recv, n.Type, n.Body)...)
					}
					return false
				case *ast.FuncLit:
					out = append(out, p.checkFunc(w, pkg, nil, n.Type, n.Body)...)
					return false
				}
				return true
			})
		}
	}
	return out
}

// isViewCall reports whether call invokes (*wire.Reader).BytesView,
// RawView or SpanView.
func (p *PoolSafety) isViewCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != p.WirePath {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch obj.Name() {
	case "BytesView", "RawView", "SpanView":
		return true
	}
	return false
}

// wireFunc reports whether call invokes the named package-level function
// of the wire package.
func (p *PoolSafety) wireFunc(pkg *Package, call *ast.CallExpr, name string) bool {
	return p.pkgFunc(pkg, call, p.WirePath, name)
}

// pkgFunc reports whether call invokes the named package-level function of
// the package at path.
func (p *PoolSafety) pkgFunc(pkg *Package, call *ast.CallExpr, path, name string) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	obj, ok := pkg.Info.Uses[id].(*types.Func)
	return ok && obj.Pkg() != nil && obj.Pkg().Path() == path &&
		obj.Name() == name && obj.Type().(*types.Signature).Recv() == nil
}

// isReaderType reports whether t is wire.Reader or *wire.Reader.
func (p *PoolSafety) isReaderType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == p.WirePath && obj.Name() == "Reader"
}

// checkFunc analyzes one function body. recv/ftype supply the parameter
// list, from which caller-owned readers are seeded.
func (p *PoolSafety) checkFunc(w *World, pkg *Package, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) []Finding {
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{Pos: w.Fset.Position(pos), Msg: fmt.Sprintf(format, args...)})
	}

	// Parameters and the receiver are caller-owned memory. A reader among
	// them — or a local reader built over bytes referencing them — yields
	// views the caller may legitimately receive back.
	paramObjs := make(map[types.Object]bool)
	callerReader := make(map[types.Object]bool)
	seedParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				paramObjs[obj] = true
				if p.isReaderType(obj.Type()) {
					callerReader[obj] = true
				}
			}
		}
	}
	seedParams(recv)
	seedParams(ftype.Params)

	// refersToParam reports whether any identifier in e resolves to a
	// parameter (covers req, req[1:], &buf[0] ...).
	refersToParam := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && paramObjs[pkg.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	tainted := make(map[types.Object]bool)     // view-aliased locals
	callerTaint := make(map[types.Object]bool) // taint traces to a caller-owned reader

	// viewIn returns a tainted identifier or view call inside expr (nil if
	// none) plus whether the borrow traces to a caller-owned reader. Call
	// expressions other than the view methods launder the borrow (append,
	// bytes.Clone, conversions, digesting — the callee's call).
	var viewIn func(e ast.Expr) (ast.Expr, bool)
	viewIn = func(e ast.Expr) (ast.Expr, bool) {
		switch e := e.(type) {
		case nil:
			return nil, false
		case *ast.Ident:
			if obj := pkg.Info.Uses[e]; obj != nil && tainted[obj] {
				return e, callerTaint[obj]
			}
			return nil, false
		case *ast.CallExpr:
			if p.isViewCall(pkg, e) {
				owned := false
				if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok {
						owned = callerReader[objOf(pkg, id)]
					}
				}
				return e, owned
			}
			return nil, false
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if bad, owned := viewIn(el); bad != nil {
					return bad, owned
				}
			}
			return nil, false
		case *ast.UnaryExpr:
			return viewIn(e.X)
		case *ast.ParenExpr:
			return viewIn(e.X)
		case *ast.SliceExpr:
			return viewIn(e.X) // v[a:b] still aliases
		}
		return nil, false
	}

	describe := func(e ast.Expr) string {
		if id, ok := e.(*ast.Ident); ok {
			return fmt.Sprintf("view-aliased %q", id.Name)
		}
		return "BytesView/RawView/SpanView result"
	}

	isGlobal := func(id *ast.Ident) bool {
		v, ok := objOf(pkg, id).(*types.Var)
		return ok && v.Parent() == pkg.Types.Scope()
	}

	checkAssign := func(lhs, rhs ast.Expr, tok token.Token) {
		bad, owned := viewIn(rhs)
		switch l := lhs.(type) {
		case *ast.Ident:
			if call, ok := rhs.(*ast.CallExpr); ok && p.wireFunc(pkg, call, "NewReader") &&
				len(call.Args) == 1 && refersToParam(call.Args[0]) {
				// A reader over caller-supplied bytes is caller-owned.
				if obj := objOf(pkg, l); obj != nil {
					callerReader[obj] = true
				}
				return
			}
			if bad != nil && isGlobal(l) {
				report(bad.Pos(), "%s stored in package-level variable %q (copy first)", describe(bad), l.Name)
				return
			}
			obj := objOf(pkg, l)
			if obj == nil {
				return
			}
			if bad != nil {
				tainted[obj] = true
				callerTaint[obj] = owned
			} else if tok == token.ASSIGN || tok == token.DEFINE {
				delete(tainted, obj) // clean overwrite clears the borrow
				delete(callerTaint, obj)
			}
		case *ast.SelectorExpr:
			if bad != nil {
				report(bad.Pos(), "%s stored into field %q (outlives the reader's buffer; copy first)", describe(bad), l.Sel.Name)
			}
		case *ast.IndexExpr:
			if bad != nil {
				report(bad.Pos(), "%s stored into map/slice element (outlives the reader's buffer; copy first)", describe(bad))
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate unit
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					checkAssign(n.Lhs[i], n.Rhs[i], n.Tok)
				}
			}
			return true
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if bad, owned := viewIn(res); bad != nil && !owned {
					report(bad.Pos(), "%s returned without copy (append to a fresh slice or use Bytes)", describe(bad))
				}
			}
		}
		return true
	})

	p.readsAfterRelease(pkg, body, report)
	return out
}

// readsAfterRelease reports every read of a variable, in source order, after
// a non-deferred router.Release of it in the same function (function
// literals aside). A release covers the rest of the function, or only the
// rest of its block if that block returns after it, and never the later
// branches of an if, switch or select it sits in a branch of; assigning the
// variable ends it.
func (p *PoolSafety) readsAfterRelease(pkg *Package, body *ast.BlockStmt, report func(token.Pos, string, ...any)) {
	type release struct {
		at, until token.Pos
		block     ast.Node
		siblings  [][2]token.Pos // later branches of the statements it branches in
	}
	released := map[types.Object]release{}
	deferred := map[*ast.CallExpr]bool{}
	targets := map[*ast.Ident]bool{} // assigned, not read
	var stack []ast.Node
	innermost := func() ast.Node {
		for i := len(stack) - 1; i >= 0; i-- {
			switch stack[i].(type) {
			case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
				return stack[i]
			}
		}
		return body
	}
	// siblings returns, for each if, switch or select that the node being
	// visited sits in a branch of, the span of its later branches.
	siblings := func() [][2]token.Pos {
		var out [][2]token.Pos
		for i := 1; i < len(stack); i++ {
			switch b := stack[i].(type) {
			case *ast.BlockStmt:
				if ifs, ok := stack[i-1].(*ast.IfStmt); ok && ifs.Body == b {
					out = append(out, [2]token.Pos{b.End(), ifs.End()})
				}
			case *ast.CaseClause, *ast.CommClause:
				out = append(out, [2]token.Pos{b.End(), stack[i-1].End()})
			}
		}
		return out
	}
	inSibling := func(r release, pos token.Pos) bool {
		for _, sp := range r.siblings {
			if pos >= sp[0] && pos < sp[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			if as, ok := stack[len(stack)-1].(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						delete(released, objOf(pkg, id))
					}
				}
			}
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate unit
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					targets[id] = true
				}
			}
		case *ast.CallExpr:
			if !deferred[n] && p.pkgFunc(pkg, n, routerPath, "Release") && len(n.Args) == 1 {
				if id, ok := n.Args[0].(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						released[obj] = release{at: n.End(), until: body.End(), block: innermost(), siblings: siblings()}
					}
				}
			}
		case *ast.ReturnStmt:
			for obj, r := range released {
				if r.block == innermost() && r.at < n.Pos() {
					r.until = r.block.End()
					released[obj] = r
				}
			}
		case *ast.Ident:
			if r, ok := released[pkg.Info.Uses[n]]; ok && !targets[n] && n.Pos() > r.at && n.Pos() < r.until && !inSibling(r, n.Pos()) {
				report(n.Pos(), "%q read after router.Release: the next router.Frame of its length may write it", n.Name)
			}
		}
		stack = append(stack, n)
		return true
	})
}

func objOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}
