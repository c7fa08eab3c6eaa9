package scenario

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// chaosSeeds returns the seeds each (policy, app) chaos cell runs.
// `make chaos-suite` sets CHAOS_SEEDS=6; the default keeps `go test ./...`
// quick while still exercising two distinct victim placements per cell.
func chaosSeeds(t *testing.T) []int64 {
	n := 2
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1 {
			t.Fatalf("CHAOS_SEEDS=%q is not a positive integer", env)
		}
		n = v
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestChaosMatrix crosses the crash-restart schedule with the Byzantine
// policy matrix: for every supported policy and app, a correct replica is
// killed and revived per cycle while the adversary stays live, and every
// safety invariant plus the rejoin obligations (cold rejoin completes,
// exactly one Rejoin per incarnation, cluster keeps deciding) must hold.
// The pass matrix is printed at the end (visible under -v, which
// `make chaos-suite` uses).
func TestChaosMatrix(t *testing.T) {
	seeds := chaosSeeds(t)
	type cell struct {
		policy, app    string
		passed, failed int
		unquiet        []int64 // seeds fenced in knownUnquiet
	}
	var cells []*cell
	for _, policy := range ChaosPolicies() {
		for _, appName := range Apps() {
			c := &cell{policy: policy, app: appName}
			cells = append(cells, c)
			name := fmt.Sprintf("%s/%s", policy, appName)
			t.Run(name, func(t *testing.T) {
				for _, seed := range seeds {
					rep := RunChaos(ChaosConfig{Seed: seed, App: appName, Policy: policy})
					if rep.Unquiet != "" {
						c.unquiet = append(c.unquiet, seed)
					}
					if rep.OK() {
						c.passed++
						continue
					}
					c.failed++
					t.Errorf("seed %d: %d violations:\n  %s",
						seed, len(rep.Violations), strings.Join(rep.Violations, "\n  "))
				}
			})
		}
	}
	t.Logf("chaos-suite pass matrix (%d seeds per cell, 2 kill/restart cycles each):", len(seeds))
	t.Logf("%-14s %-11s %s", "policy", "app", "pass/total")
	for _, c := range cells {
		t.Logf("%-14s %-11s %d/%d", c.policy, c.app, c.passed, c.passed+c.failed)
		if len(c.unquiet) > 0 {
			t.Logf("%-14s %-11s seeds %v did not go quiet: fenced as a known hole", "", "", c.unquiet)
		}
	}
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
