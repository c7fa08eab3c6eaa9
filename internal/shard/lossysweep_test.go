//go:build lossysweep

package shard_test

import (
	"testing"
	"time"

	"repro/internal/outcome"
)

// TestLossySweep runs TestCrossShardLossyNetwork's scenario over seeds 1-50
// per app instead of its tier-1 seed (`make lossy-sweep`; not part of `make
// ci`) and compares each seed's verdict with its line of the outcome ledger's
// [crossshard] section (outcome.Check): it fails if any seed got worse, and
// otherwise writes what improved. The seeds run on every CPU
// (outcome.Sweep); each app's tally and wall-clock time are logged.
func TestLossySweep(t *testing.T) {
	const seeds = 50
	start := time.Now()
	var got []outcome.Line
	for _, sa := range shardApps() {
		appStart := time.Now()
		lines := outcome.Sweep(sa.name, seeds, func(seed int64) outcome.Verdict {
			v, _ := lossyCrossShard(t, sa, seed)
			return v
		})
		t.Logf("%s, seeds 1-%d: %s (%.1f s)", sa.name, seeds, outcome.Tally(lines), time.Since(appStart).Seconds())
		got = append(got, lines...)
	}
	outcome.Check(t, "crossshard", got)
	t.Logf("crossshard: %.1f s wall clock in all", time.Since(start).Seconds())
}
