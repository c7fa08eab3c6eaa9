// Package consgate is the appagnostic fixture for the consensus gate: a
// replica that answers a transaction question itself — the staged-hint scan
// the ordered OpTxnListStaged command replaced — is the planted violation;
// the replica-side capabilities and the read path's two helpers are the
// sanctioned surface.
package consgate

import "repro/internal/app"

// Plant lists the application's staged transactions from replica code.
func Plant(sm app.StateMachine) int {
	p, ok := sm.(app.TxnParticipant) // want "app-specific identifier app.TxnParticipant in the consensus layer"
	if !ok {
		return 0
	}
	var staged []app.StagedTxn = p.StagedTxns() // want "app-specific identifier app.StagedTxn in the consensus layer"
	return len(staged)
}

// Sanctioned executes and fingerprints without knowing what it runs.
func Sanctioned(sm app.StateMachine, res []byte) (uint64, bool) {
	_, defers := sm.(app.Deferring)
	return app.ReadDigest(res), defers && len(res) == 1 && res[0] == app.StatusLocked
}
