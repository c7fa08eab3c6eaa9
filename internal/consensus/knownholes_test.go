//go:build knownholes

package consensus_test

import "testing"

// The seeds on which a lossy scenario of lossy_test.go ends with two replicas
// in different states, kept as the deterministic trip tests of ROADMAP items 1 and 3
// (`make known-holes`; not part of `make ci`). Each fails, printing the slots
// the two replicas executed differently, for as long as its hole is open;
// tier-1 keeps the scenarios' fixed seeds, none of which diverges, and a seed
// found to diverge is added here, never swapped for a lucky one.

// TestKnownHoleSoakSeed23: partition churn, seed 23, since PR 21. Replicas 0
// and 1 end at 32 slots in different states, having decided two values for
// each of two slots across a view change (item 1(a)):
//
//	slot 20: replica 0 executed -, replica 1 executed SET k9 (view 19)
//	slot 21: replica 0 executed SET k9 (view 19), replica 1 executed -
//
// With PR 22's certificate timing the same request lands in slot 18 at
// replica 1 (view 18) and slot 20 at replica 0 (view 24).
func TestKnownHoleSoakSeed23(t *testing.T) {
	if v := partitionChurnSoak(23, t.Logf); v.kind == "diverged" {
		t.Fatal(v)
	}
}

// TestKnownHoleSoakSeed15: partition churn, seed 15, since PR 22 (its timing
// re-rolled the seeds; over seeds 1-200 the soak diverges on 15 where it
// diverged on 16 at the parent). The same shape, item 1(a), 42 slots:
//
//	slot 22: replica 0 executed SET k19 (view 6), replica 1 executed -
//	slot 23: replica 0 executed -, replica 1 executed SET k19 (view 9)
func TestKnownHoleSoakSeed15(t *testing.T) {
	if v := partitionChurnSoak(15, t.Logf); v.kind == "diverged" {
		t.Fatal(v)
	}
}

// TestKnownHoleRejoinSeeds2And14: the two seeds of the lossy cold rejoin that
// diverged at PR 21's parent, where the rejoined replica executed a batch its
// peer skipped as already executed (the exactly-once table is not in the
// snapshot, item 3(a)):
//
//	seed 2   slot 40: replica 0 executed -, replica 2 executed k103 k109 k102 (view 9)
//	seed 14  slot 40: replica 0 executed -, replica 2 executed k104 k102 k107 (view 13)
//	         slot 41: replica 0 executed k200 (view 13), replica 2 executed -
//	         slot 42: replica 0 executed -, replica 2 executed k200 (view 13)
//
// With PR 21's retransmission timing both seeds pass; the hole is as open as
// it was, and this test is where it shows again when timing moves back.
func TestKnownHoleRejoinSeeds2And14(t *testing.T) {
	for _, seed := range []int64{2, 14} {
		if v := lossyRejoin(seed, t.Logf); v.kind == "diverged" {
			t.Errorf("seed %d %v", seed, v)
		}
	}
}
