package scenario

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/consensus"
)

// matrixSeeds returns the seeds each (policy, app, read-mode) cell runs.
// `make byz-suite` sets BYZ_SEEDS=8; the default keeps `go test ./...`
// quick while still running every cell twice.
func matrixSeeds(t *testing.T) []int64 {
	n := 2
	if env := os.Getenv("BYZ_SEEDS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1 {
			t.Fatalf("BYZ_SEEDS=%q is not a positive integer", env)
		}
		n = v
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestByzMatrix runs every policy against every app in every read mode,
// one deterministic run per seed, and asserts every safety invariant holds
// with the defenses on. The pass matrix is printed at the end (visible
// under -v, which `make byz-suite` uses).
func TestByzMatrix(t *testing.T) {
	seeds := matrixSeeds(t)
	type cell struct {
		policy, app, mode string
		depth             int
		passed, failed    int
	}
	var cells []*cell
	for _, policy := range Policies() {
		for _, appName := range Apps() {
			for _, mode := range ReadModes() {
				cells = append(cells, &cell{policy: policy, app: appName, mode: mode, depth: 1})
			}
		}
	}
	// The one cell where requests queue at the leader and a batch meets a
	// fault: every other cell keeps one request in flight.
	cells = append(cells, &cell{policy: BadBatch, app: "rkv", mode: ReadFast, depth: 4})
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%s/%s", c.policy, c.app, c.mode), func(t *testing.T) {
			for _, seed := range seeds {
				rep := Run(Config{Seed: seed, App: c.app, ReadMode: c.mode, Policy: c.policy, Depth: c.depth})
				if rep.OK() {
					c.passed++
					continue
				}
				c.failed++
				t.Errorf("seed %d: %d invariant violations:\n  %s",
					seed, len(rep.Violations), strings.Join(rep.Violations, "\n  "))
			}
		})
	}
	t.Logf("byz-suite pass matrix (%d seeds per cell):", len(seeds))
	t.Logf("%-14s %-11s %-9s %s", "policy", "app", "readmode", "pass/total")
	for _, c := range cells {
		t.Logf("%-14s %-11s %-9s %d/%d", c.policy, c.app, c.mode, c.passed, c.passed+c.failed)
	}
}

// TestByzDeterministicPerSeed: the harness is a pure function of its seed —
// the exact precondition for "every Byzantine scenario deterministic per
// seed". Two runs of an adversarial cell must agree op for op.
func TestByzDeterministicPerSeed(t *testing.T) {
	cfg := Config{Seed: 3, App: "rkv", ReadMode: ReadFast, Policy: ForgeReads}
	a, b := Run(cfg), Run(cfg)
	if a.Ops != b.Ops || a.Commits != b.Commits || len(a.Violations) != len(b.Violations) {
		t.Fatalf("same seed diverged: ops %d/%d commits %d/%d violations %d/%d",
			a.Ops, b.Ops, a.Commits, b.Commits, len(a.Violations), len(b.Violations))
	}
}

// requireTrip asserts at least one of the given seeds produces an
// invariant violation — the checker-sensitivity bar: with a defense
// switched off, the attack it bounds must become visible. It returns the
// first report that tripped.
func requireTrip(t *testing.T, what string, cfgs []Config) *Report {
	t.Helper()
	for _, cfg := range cfgs {
		if rep := Run(cfg); !rep.OK() {
			t.Logf("%s tripped at seed %d: %s", what, cfg.Seed, rep.Violations[0])
			return rep
		}
	}
	t.Fatalf("%s: invariant checker never tripped with the defense disabled", what)
	return nil
}

// TestTripEquivocation: equivocation is bounded by TWO independent
// defenses, and both must be switched off before the attack lands.
// CTBcast's LOCKED unanimity (defense one) refuses to deliver divergent
// variants; the Sec. 5.4 echo rule (defense two) makes followers withhold
// their endorsement of any prepare whose request the client never sent
// them directly, so forged payloads starve the slot and the view change
// re-proposes the original. With both off, correct replicas endorse and
// execute different commands, and the first violation is the agreement
// oracle's, at the decision itself, not a symptom a client saw later.
func TestTripEquivocation(t *testing.T) {
	rep := requireTrip(t, "equivocation with unanimity and echo off", []Config{
		{Seed: 1, App: "rkv", ReadMode: ReadFast, Policy: Equivocate,
			Defenses: consensus.Defenses{FirstLockDelivers: true, NoEchoWait: true}},
		{Seed: 2, App: "rkv", ReadMode: ReadFast, Policy: Equivocate,
			Defenses: consensus.Defenses{FirstLockDelivers: true, NoEchoWait: true}},
	})
	if first := rep.Violations[0]; !strings.HasPrefix(first, "agreement oracle: group 0 decided ") {
		t.Fatalf("first violation is not the oracle's conflicting decision: %s", first)
	}
}

// TestTripForgedReads: with the client's f+1 matching rule off (any single
// reply accepted) and the ordered fallback disabled, the forging replica's
// inflated-version garbage replies win reads — read-your-writes and the
// floor invariant must trip.
func TestTripForgedReads(t *testing.T) {
	var cfgs []Config
	for seed := int64(1); seed <= 8; seed++ {
		cfgs = append(cfgs, Config{
			Seed: seed, App: "rkv", ReadMode: ReadFast, Policy: ForgeReads,
			Defenses: consensus.Defenses{QuorumOne: true, NoReadFallback: true},
		})
	}
	requireTrip(t, "forged reads with quorum off", cfgs)
}

// TestTripCorruptVotes: with the quorum rule off, the vote-flipping
// participant's lone reply decides 2PC phases — flipped prepare votes and
// poisoned single-status acks must surface as violations.
func TestTripCorruptVotes(t *testing.T) {
	var cfgs []Config
	for seed := int64(1); seed <= 8; seed++ {
		cfgs = append(cfgs, Config{
			Seed: seed, App: "rkv", ReadMode: ReadFast, Policy: CorruptVotes,
			Defenses: consensus.Defenses{QuorumOne: true},
		})
	}
	requireTrip(t, "corrupted votes with quorum off", cfgs)
}

// TestTripSilenceBeyondF: two silent replicas exceed the f=1 bound every
// quorum argument assumes — the client can never assemble f+1 matching
// replies and the completion invariant must trip. (This is the "why f=1
// bounds the attack" demonstration: one silent replica, as in the matrix,
// is harmless.)
func TestTripSilenceBeyondF(t *testing.T) {
	requireTrip(t, "silence beyond f", []Config{
		{Seed: 1, App: "kv", ReadMode: ReadFast, Policy: Silence, SilenceBoth: true},
	})
}

// TestStrongReadLoneLiar: the 2f+1 strong-read rule under one forging
// replica. The liar can force fallbacks (its reply breaks the all-replicas
// agreement), but every accepted value must still be correct — asserted
// across apps and seeds by the full invariant set.
func TestStrongReadLoneLiar(t *testing.T) {
	for _, appName := range Apps() {
		t.Run(appName, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rep := Run(Config{Seed: seed, App: appName, ReadMode: ReadStrong, Policy: ForgeReads})
				if !rep.OK() {
					t.Errorf("seed %d: %s", seed, strings.Join(rep.Violations, "; "))
				}
			}
		})
	}
}

// TestReadLiarResolvesByWiden: a read asks f+1 replicas first, so a forging
// replica among them leaves no quorum — the read must resolve by asking the
// rest of the group under the same number, not by the ordered path, and the
// liar is then passed over (far fewer widens than reads that would have
// asked it). The honest control run widens nowhere.
func TestReadLiarResolvesByWiden(t *testing.T) {
	for _, appName := range Apps() {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := Config{Seed: seed, App: appName, ReadMode: ReadFast, Policy: ForgeReads, Rounds: 40}
			rep := Run(cfg)
			if !rep.OK() {
				t.Errorf("%s seed %d: %s", appName, seed, strings.Join(rep.Violations, "; "))
			}
			if rep.FastReads == 0 || rep.ReadWidens == 0 || rep.ReadFallbacks != 0 {
				t.Errorf("%s seed %d: fast=%d widens=%d fallbacks=%d, want the liar out-voted by a widen and no fallback",
					appName, seed, rep.FastReads, rep.ReadWidens, rep.ReadFallbacks)
			}
			if rep.ReadWidens*4 > rep.FastReads {
				t.Errorf("%s seed %d: %d widens for %d reads: the liar is not passed over", appName, seed, rep.ReadWidens, rep.FastReads)
			}
			cfg.Policy = Honest
			if rep := Run(cfg); !rep.OK() || rep.ReadWidens != 0 || rep.ReadFallbacks != 0 {
				t.Errorf("%s seed %d honest: violations=%v widens=%d fallbacks=%d", appName, seed, rep.Violations, rep.ReadWidens, rep.ReadFallbacks)
			}
		}
	}
}
