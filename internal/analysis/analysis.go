// Package analysis is the project-invariant static-analysis suite behind
// `make lint` (cmd/ubft-lint). The whole verification story of this
// reproduction — bit-identical per-seed runs, the Byzantine scenario
// matrix, the alloc budgets — rests on source-level invariants that the
// compiler does not check, so this package does, over go/parser + go/types
// with dependencies imported from compiler export data (stdlib only, no
// external modules):
//
//   - determinism: deterministic packages must not consult wall clocks,
//     global rand, spawn goroutines, or range over maps order-sensitively.
//   - poolsafety: wire.Reader.BytesView/RawView/SpanView borrows must not outlive
//     their buffer (no stores into fields/maps/globals, no uncloned
//     returns), and a frame must not be read after router.Release.
//   - tagregistry: wire tags/opcodes/status bytes live in the central
//     registry (internal/wire, internal/app); raw literals and shadow
//     const blocks elsewhere are errors, and the byz policies are
//     cross-checked against the registry's client-reply tags.
//   - appagnostic: internal/shard may reference internal/app only through
//     the capability interfaces and the generic txn envelope, and
//     internal/consensus only through the replica-side capabilities (no
//     transaction vocabulary at all).
//   - doclint: every internal package carries a `// Package <name>` doc
//     comment.
//
// A finding is suppressed by a waiver directive on its line or the line
// above (or, for const-block findings, on the block): `//ubft:<directive>
// <justification>`. Waivers without a justification, and waivers that no
// longer suppress anything, are themselves findings, and the total number
// of waivers in effect is tallied against WaiverBudget so the count cannot
// grow silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// WaiverBudget is the number of waiver directives the tree is allowed to
// carry. `make lint` fails if the tally exceeds it; the self-check test
// fails if the tally drifts from it in either direction, so every waiver
// added or removed is a deliberate, reviewed change.
// Current tally: 3 tagregistry (baseline protocols), 1 poolsafety (a
// borrow of a per-message delivery buffer: the SIGNED signature
// ctbcast.ParseMsg stores in its Msg; a certificate xcrypto.ReadCert
// decodes is a span of its caller's reader, returned, so it needs none), 1
// appagnostic (shard's default KV factory), 1 deterministic (per-key chain
// trim in the MVCC store).
const WaiverBudget = 6

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Pass string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Pass, f.Msg)
}

// Pass is one analyzer. Run inspects w.Pkgs (each pass filters the
// packages its invariant covers) and reports raw findings; waiver handling
// is the framework's job.
type Pass interface {
	Name() string
	// Directive is the waiver suffix: `//ubft:<directive> why`.
	Directive() string
	Run(w *World) []Finding
}

// Result is the outcome of applying a pass suite to a world.
type Result struct {
	Findings []Finding      // unwaived findings, sorted by position
	Waivers  int            // waiver directives that suppressed something
	ByPass   map[string]int // waivers per directive
}

// directiveRE matches a waiver comment: //ubft:<directive> <justification>.
var directiveRE = regexp.MustCompile(`^//ubft:([a-z-]+)(?:\s+(.*))?$`)

// waiver is one //ubft: directive found in a source comment.
type waiver struct {
	pos       token.Position
	directive string
	reason    string
	used      bool
}

// Options tunes Apply.
type Options struct {
	// CheckUnused reports waivers that suppressed nothing. Only set when
	// the full pass suite runs (a partial run would see every waiver for a
	// disabled pass as unused).
	CheckUnused bool
}

// Apply runs the passes over the world, applies waiver directives, and
// returns the surviving findings plus the waiver tally.
func Apply(w *World, passes []Pass, opt Options) Result {
	waivers, blockOf := collectWaivers(w)

	var out []Finding
	byPass := make(map[string]int)
	for _, p := range passes {
		for _, f := range p.Run(w) {
			if wv := matchWaiver(waivers, blockOf, p.Directive(), f.Pos); wv != nil {
				wv.used = true
				continue
			}
			out = append(out, Finding{Pos: f.Pos, Pass: p.Name(), Msg: f.Msg})
		}
	}

	used := 0
	for _, wv := range waivers {
		if wv.reason == "" {
			out = append(out, Finding{Pos: wv.pos, Pass: "waiver",
				Msg: fmt.Sprintf("ubft:%s waiver has no justification", wv.directive)})
			continue
		}
		if wv.used {
			used++
			byPass[wv.directive]++
		} else if opt.CheckUnused {
			out = append(out, Finding{Pos: wv.pos, Pass: "waiver",
				Msg: fmt.Sprintf("unused ubft:%s waiver (nothing on this line needs it)", wv.directive)})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Msg < out[j].Msg
	})
	return Result{Findings: out, Waivers: used, ByPass: byPass}
}

// lineKey identifies one source line.
type lineKey struct {
	file string
	line int
}

// collectWaivers scans every comment of every package for //ubft:
// directives. It returns the waivers keyed by line, plus a map from every
// line covered by a const block to the line of that block's doc comment,
// so a single block-level directive can waive a whole shadow const block.
func collectWaivers(w *World) (map[lineKey]*waiver, map[lineKey]lineKey) {
	waivers := make(map[lineKey]*waiver)
	blockOf := make(map[lineKey]lineKey)
	for _, p := range w.Pkgs {
		collectFileWaivers(w, p, waivers, blockOf)
	}
	return waivers, blockOf
}

func collectFileWaivers(w *World, p *Package, waivers map[lineKey]*waiver, blockOf map[lineKey]lineKey) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := w.Fset.Position(c.Pos())
				waivers[lineKey{pos.Filename, pos.Line}] = &waiver{
					pos:       pos,
					directive: m[1],
					reason:    strings.TrimSpace(m[2]),
				}
			}
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || gd.Doc == nil {
				continue
			}
			doc := w.Fset.Position(gd.Doc.End())
			start := w.Fset.Position(gd.Pos()).Line
			end := w.Fset.Position(gd.End()).Line
			for l := start; l <= end; l++ {
				blockOf[lineKey{doc.Filename, l}] = lineKey{doc.Filename, doc.Line}
			}
		}
	}
}

// matchWaiver finds a directive covering pos: same line, the line above,
// or the doc comment of the enclosing const block.
func matchWaiver(waivers map[lineKey]*waiver, blockOf map[lineKey]lineKey, directive string, pos token.Position) *waiver {
	keys := []lineKey{
		{pos.Filename, pos.Line},
		{pos.Filename, pos.Line - 1},
	}
	if bk, ok := blockOf[lineKey{pos.Filename, pos.Line}]; ok {
		keys = append(keys, bk, lineKey{bk.file, bk.line - 1})
	}
	for _, k := range keys {
		if wv := waivers[k]; wv != nil && wv.directive == directive {
			return wv
		}
	}
	return nil
}

// AllPasses returns the full default suite in reporting order.
func AllPasses() []Pass {
	return []Pass{
		NewDeterminism(),
		NewPoolSafety(),
		NewTagRegistry(),
		NewAppAgnostic(),
		NewConsensusAppAgnostic(),
		NewDocLint(),
	}
}
