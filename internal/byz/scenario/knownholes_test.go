//go:build knownholes

package scenario

import "testing"

// TestKnownHoleRejoinedVictimSuspectsForEver runs the chaos cells fenced in
// knownUnquiet and fails for each that still does not go quiet after its run:
// the deterministic trip tests of the hole the fence names (`make
// known-holes`; not part of `make ci`).
func TestKnownHoleRejoinedVictimSuspectsForEver(t *testing.T) {
	for cell := range knownUnquiet {
		if rep := RunChaos(ChaosConfig{Seed: cell.seed, App: cell.app, Policy: cell.policy}); rep.Unquiet != "" {
			t.Errorf("%s/%s seed %d does not go quiet: %s", cell.policy, cell.app, cell.seed, rep.Unquiet)
		}
	}
}
