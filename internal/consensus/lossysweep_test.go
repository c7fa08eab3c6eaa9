//go:build lossysweep

package consensus_test

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestLossySweep runs the three lossy scenarios of lossy_test.go over seed
// ranges instead of their one tier-1 seed each and prints pass / wedged /
// diverged per seed (`make lossy-sweep`; not part of `make ci`), with each
// scenario's wall-clock time and the total. "Diverged" is the agreement
// oracle's first conflict, printed as its one line, or unequal states of two
// replicas at equal progress at the end (judge). It fails on nothing: the
// table and the times are the result, recorded per PR in CHANGES.md.
func TestLossySweep(t *testing.T) {
	start := time.Now()
	defer func() { t.Logf("lossy sweep: %.1f s wall clock in all", time.Since(start).Seconds()) }()
	for _, sc := range []struct {
		name  string
		seeds int64
		run   func(seed int64, logf func(string, ...any)) verdict
	}{
		{"rejoin (TestRestartRejoinsUnderLossyFabric)", 120, lossyRejoin},
		{"agreement (TestPreGSTNeverViolatesAgreement)", 200, preGSTAgreement},
		{"soak (TestSoakWithPartitionChurn)", 200, partitionChurnSoak},
	} {
		scStart := time.Now()
		count := map[string]int{}
		var lines []string
		for seed := int64(1); seed <= sc.seeds; seed++ {
			v := sc.run(seed, func(string, ...any) {})
			count[v.kind]++
			lines = append(lines, fmt.Sprintf("  seed %2d  %s", seed, strings.TrimSuffix(v.String(), ": ")))
		}
		t.Logf("%s, seeds 1-%d: %d pass / %d wedged / %d diverged (%.1f s)\n%s", sc.name, sc.seeds,
			count["pass"], count["wedged"], count["diverged"], time.Since(scStart).Seconds(), strings.Join(lines, "\n"))
	}
}
