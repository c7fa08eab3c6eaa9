//go:build knownholes

package consensus_test

import "testing"

// The seeds on which a lossy scenario of lossy_test.go diverges, kept as the
// deterministic trip tests of ROADMAP items 1 and 3 (`make known-holes`; not
// part of `make ci`). Each fails for as long as its hole is open, printing
// the agreement oracle's report of the first conflict (cluster.Divergence);
// tier-1 keeps the scenarios' fixed seeds, none of which diverges, and a seed
// found to diverge is added here, never swapped for a lucky one.

// TestKnownHoleSoakSeed22: partition churn, seed 22. Slot 22 decided in view
// 30 and again, with the request before it, by the view-31 leader's proposal:
// the new view did not see the old decision (item 1(a)). The oracle:
//
//	agreement oracle: group 0 decided client p200 #16 (777ba07f) at slot 22 in view 30 by replica p1 at 470878.490us,
//	and client p200 #15 (eb88a036) at slot 22 in view 31 by replica p2 at 473704.710us
func TestKnownHoleSoakSeed22(t *testing.T) {
	if v := partitionChurnSoak(22, t.Logf); v.kind == "diverged" {
		t.Fatal(v)
	}
}

// TestKnownHoleSoakSeed92: partition churn, seed 92. Replica 1 decides slot 33
// in view 16, 1.5 ms after replica 0 decided it in view 20 with another
// request: a decision of an old view that the later views did not cover
// (item 1(a)). The oracle:
//
//	agreement oracle: group 0 decided client p200 #28 (13a9d2b1) at slot 33 in view 20 by replica p0 at 233659.850us,
//	and client p200 #27 (be9f2552) at slot 33 in view 16 by replica p1 at 235113.910us
func TestKnownHoleSoakSeed92(t *testing.T) {
	if v := partitionChurnSoak(92, t.Logf); v.kind == "diverged" {
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
