package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"
	"regexp"
)

// AppAgnostic holds one package to a boundary against internal/app: its
// non-test sources may reference the application package only through an
// allow-list of identifiers. Two instances run under `make lint`:
//
//   - the shard layer (the typed reimplementation of the old
//     shard-opcode-gate grep) must stay application-agnostic: capability
//     interfaces, the generic transaction envelope, generic statuses and
//     the generic routing helper only. Any other app identifier — an
//     app-specific opcode, encoder, constructor or response type — couples
//     the sharding fabric to one application.
//   - the consensus layer orders opaque requests (§5.4) and must stay
//     transaction-agnostic on top of that: the replica-side capability
//     interfaces, the read digest and the one status byte the read path
//     inspects. An app.Txn*, app.OpTxn* or app.StagedTxn reference there is
//     a protocol step that escaped the ordered envelope.
//
// Waivers read //ubft:appagnostic <why>.
type AppAgnostic struct {
	// Path is the package held to the boundary (its last element names the
	// layer in a finding); Use says what the package may reference instead.
	Path, Use string
	// AppPath is the application package.
	AppPath string
	// Allowed lists permitted identifier names; AllowedRE permits families
	// (the generic txn envelope codecs, the generic status bytes).
	Allowed   map[string]bool
	AllowedRE *regexp.Regexp
}

// NewAppAgnostic returns the gate bound to repro/internal/shard.
func NewAppAgnostic() *AppAgnostic {
	return &AppAgnostic{
		Path:    "repro/internal/shard",
		Use:     "use the capability interfaces / generic txn envelope",
		AppPath: "repro/internal/app",
		Allowed: map[string]bool{
			// Capability interfaces: how shard discovers what an app can do.
			"StateMachine":          true,
			"Router":                true,
			"Fragmenter":            true,
			"TxnParticipant":        true,
			"ReadExecutor":          true,
			"VersionedReadExecutor": true,
			// Generic building blocks shared by every transactional app.
			"LockTable":    true,
			"NewLockTable": true,
			"ShardOfKey":   true,
		},
		// The generic transaction envelope and the app-agnostic status
		// bytes every participant speaks.
		AllowedRE: regexp.MustCompile(`^(Encode|Decode)Txn[A-Z][A-Za-z]*$|^Status[A-Z][A-Za-z]*$`),
	}
}

// NewConsensusAppAgnostic returns the gate bound to
// repro/internal/consensus.
func NewConsensusAppAgnostic() *AppAgnostic {
	return &AppAgnostic{
		Path:    "repro/internal/consensus",
		Use:     "a protocol step of the application is an ordered command, not replica code",
		AppPath: "repro/internal/app",
		Allowed: map[string]bool{
			// What a replica asks of the state machine it executes.
			"StateMachine":          true,
			"ReadExecutor":          true,
			"VersionedReadExecutor": true,
			"Versioned":             true,
			"Deferring":             true,
			// The read path's reply fingerprint and its locked-key refusal.
			"ReadDigest":   true,
			"StatusLocked": true,
		},
	}
}

// Name implements Pass.
func (a *AppAgnostic) Name() string { return "appagnostic" }

// Directive implements Pass.
func (a *AppAgnostic) Directive() string { return "appagnostic" }

// Run implements Pass. Only package-qualified references (`app.X`) are
// checked: a method or field reached through a value of a capability
// interface type (r.AppendKeys, frag.ReadOnly, staged.Coord) was already granted
// by whichever allowed entry point produced the value — the interface IS
// the boundary.
func (a *AppAgnostic) Run(w *World) []Finding {
	var out []Finding
	for _, pkg := range w.Pkgs {
		if pkg.Path != a.Path {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				qual, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pkg.Info.Uses[qual].(*types.PkgName)
				if !ok || pn.Imported().Path() != a.AppPath {
					return true
				}
				name := sel.Sel.Name
				if a.Allowed[name] || (a.AllowedRE != nil && a.AllowedRE.MatchString(name)) {
					return true
				}
				out = append(out, Finding{
					Pos: w.Fset.Position(sel.Pos()),
					Msg: fmt.Sprintf("app-specific identifier app.%s in the %s layer (%s)", name, path.Base(a.Path), a.Use),
				})
				return true
			})
		}
	}
	return out
}
