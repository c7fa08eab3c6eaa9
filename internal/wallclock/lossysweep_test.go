//go:build lossysweep

package wallclock

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/outcome"
)

// TestLossySweep runs the process-level chaos run (followerCrash) 50 times
// (`make lossy-sweep`; not part of `make ci`, about 3 minutes) and records
// how many wedged as the outcome ledger's one [fleet] line. A run whose
// launcher failed is counted apart: it says nothing about the protocol. The
// runs are wall clock and not deterministic, so the line is logged beside
// the committed one and written, and never fails (outcome.Record).
func TestLossySweep(t *testing.T) {
	const runs = 50
	start := time.Now()
	var count [outcome.Diverged + 1]int
	worst, launchFailures := outcome.Pass, 0
	for i := 1; i <= runs; i++ {
		v, err := followerCrash(func(string, ...any) {})
		switch {
		case err != nil:
			launchFailures++
			t.Logf("run %d: launch failure: %v", i, err)
		case v.Kind != outcome.Pass:
			count[v.Kind]++
			worst = max(worst, v.Kind)
			t.Logf("run %d: %v", i, v)
		}
	}
	note := fmt.Sprintf("%d wedged, %d launch failures of %d", count[outcome.Wedged], launchFailures, runs)
	if n := count[outcome.Violated]; n > 0 {
		note += fmt.Sprintf(", %d with failed operations", n)
	}
	outcome.Record(t, "fleet", []outcome.Line{{Scenario: "follower-crash", Seed: runs, Verdict: outcome.Verdict{Kind: worst, Note: note}}})
	t.Logf("fleet: %.1f s wall clock in all", time.Since(start).Seconds())
}
