//go:build lossysweep

package consensus_test

import (
	"testing"
	"time"

	"repro/internal/outcome"
)

// TestLossySweep runs the three lossy scenarios of lossy_test.go over seed
// ranges instead of their tier-1 seeds (`make lossy-sweep`; not part of `make
// ci`) and compares each seed's verdict with its line of the outcome ledger's
// [consensus] section (outcome.Check): it fails if any seed got worse, and
// otherwise writes what improved. "Diverged" is the agreement oracle's first
// conflict or unequal final states at equal progress (outcome.Judge). The
// seeds run on every CPU (outcome.Sweep); each scenario's tally and
// wall-clock time are logged.
func TestLossySweep(t *testing.T) {
	start := time.Now()
	var got []outcome.Line
	for _, sc := range []struct {
		name  string // TestRestartRejoinsUnderLossyFabric, TestPreGSTNeverViolatesAgreement, TestSoakWithPartitionChurn
		seeds int64
		run   func(seed int64, logf func(string, ...any)) outcome.Verdict
	}{
		{"rejoin", 120, lossyRejoin},
		{"agreement", 200, preGSTAgreement},
		{"soak", 200, partitionChurnSoak},
	} {
		scStart := time.Now()
		lines := outcome.Sweep(sc.name, sc.seeds, func(seed int64) outcome.Verdict { return sc.run(seed, func(string, ...any) {}) })
		t.Logf("%s, seeds 1-%d: %s (%.1f s)", sc.name, sc.seeds, outcome.Tally(lines), time.Since(scStart).Seconds())
		got = append(got, lines...)
	}
	outcome.Check(t, "consensus", got)
	t.Logf("consensus: %.1f s wall clock in all", time.Since(start).Seconds())
}
