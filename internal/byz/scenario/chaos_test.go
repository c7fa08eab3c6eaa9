package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/outcome"
)

// TestChaosMatrix crosses the crash-restart schedule with the Byzantine
// policy matrix: for every supported policy and app, a correct replica is
// killed and revived per cycle while the adversary stays live, and every
// safety invariant plus the rejoin obligations (cold rejoin completes,
// exactly one Rejoin per incarnation, cluster keeps deciding, the deployment
// goes quiet afterwards) must hold. Each run's verdict is compared with its
// line of the outcome ledger's [chaos] section (outcome.Check): a cell that
// does not go quiet for a known reason is fenced by a committed "unquiet"
// line, and any run worse than its line fails.
func TestChaosMatrix(t *testing.T) {
	var got []outcome.Line
	for _, policy := range ChaosPolicies() {
		for _, appName := range Apps() {
			name := fmt.Sprintf("%s/%s", policy, appName)
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= seedsOf(chaosSeeds); seed++ {
					rep := RunChaos(ChaosConfig{Seed: seed, App: appName, Policy: policy})
					got = append(got, ledgerLine(t, name, seed, &rep.Report))
				}
			})
		}
	}
	outcome.Check(t, "chaos", got)
}

// TestChaosDeterministicPerSeed is the restart-determinism gate: a chaos
// run — workload, crash points, rejoin traffic, even the adversary — is a
// pure function of its seed, so two runs of the same cell must end in
// bit-identical deployment state. The comparison is over finalDigest,
// which folds every replica's application snapshot, decided count and
// rejoin counter plus the harness totals.
func TestChaosDeterministicPerSeed(t *testing.T) {
	for _, cfg := range []ChaosConfig{
		{Seed: 2, App: "rkv", Policy: Equivocate},
		{Seed: 5, App: "kv", Policy: Honest},
	} {
		name := fmt.Sprintf("%s/%s/seed%d", cfg.Policy, cfg.App, cfg.Seed)
		t.Run(name, func(t *testing.T) {
			a, b := RunChaos(cfg), RunChaos(cfg)
			if a.Digest != b.Digest {
				t.Fatalf("same seed diverged:\n  run1: ops=%d commits=%d rejoins=%d violations=%v\n  run2: ops=%d commits=%d rejoins=%d violations=%v",
					a.Ops, a.Commits, a.Rejoins, a.Violations,
					b.Ops, b.Commits, b.Rejoins, b.Violations)
			}
			if !a.OK() {
				t.Fatalf("deterministic but violated: %s", strings.Join(a.Violations, "; "))
			}
		})
	}
}
