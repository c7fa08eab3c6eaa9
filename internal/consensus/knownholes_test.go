//go:build knownholes

package consensus_test

import "testing"

// The seeds on which a lossy scenario of lossy_test.go ends with two replicas
// in different states, kept as the deterministic trip tests of ROADMAP item 3
// (`make known-holes`; not part of `make ci`). Each fails, printing the slots
// the two replicas executed differently, for as long as its hole is open;
// tier-1 keeps the scenarios' fixed seeds, none of which diverges, and a seed
// found to diverge is added here, never swapped for a lucky one.

// TestKnownHoleSoakSeed23: partition churn, seed 23, since PR 21. Replicas 0
// and 1 end at 32 slots in different states, having decided two values for
// each of two slots across a view change (item 3(c)):
//
//	slot 20: replica 0 executed -, replica 1 executed SET k9 (view 19)
//	slot 21: replica 0 executed SET k9 (view 19), replica 1 executed -
//
// Since PR 22 (a checkpoint every half window) the same seed ends at 50
// slots with replica 1 skipping, as already executed, a request replica 0
// executes after a state transfer (item 3(b)):
//
//	slot 16: replica 0 executed SET k7 (view 13), replica 1 executed -
func TestKnownHoleSoakSeed23(t *testing.T) {
	if v := partitionChurnSoak(23, t.Logf); v.kind == "diverged" {
		t.Fatal(v)
	}
}

// TestKnownHoleRejoinSeeds2And14: the two seeds of the lossy cold rejoin that
// diverged at PR 21's parent, where the rejoined replica executed a batch its
// peer skipped as already executed (the exactly-once table is not in the
// snapshot, item 3(b)):
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

// TestKnownHoleHalfWindowSeeds: the seeds that diverge since PR 22, which takes
// a checkpoint every half window: with windows of 8 and 16 slots and runs of
// 15 to 50 slots there are twice as many certificates for a replica that lags
// to be state-transferred by, and each transfer leaves it with an exactly-once
// table that misses the slots it skipped (item 3(b): it then executes a
// request decided a second time that its peers skip, or the reverse). Rejoin
// seed 16 is the other shape, two values decided for one slot across a view
// change (item 3(c)).
//
//	rejoin 16     slot 36: replica 0 executed -, replica 1 executed k106 (view 6)
//	              slot 37: replica 0 executed k105 (view 5), replica 1 executed -
//	rejoin 21     slot 36: replica 0 executed -, replica 2 executed k104 (view 6)
//	              slot 37: replica 0 executed -, replica 2 executed k102 (view 6)
//	agreement 30  slots 8-11: replica 0 executed m5, m2, m7, m4 (view 4), replica 1 executed -
//	soak 1        slots 35, 37, 40-43: replica 0 executed -, replica 2 executed k25 (view 15), k21, k24, k22, k26, k23 (view 18)
//	soak 15       slot 34: replica 0 executed k29 (view 20), replica 2 executed -
//	soak 18       slot 18: replica 0 executed -, replica 2 executed k12 (view 18)
//
// One trigger was found while reading these traces and is not fixed here: a
// new leader re-routes its held requests in startView and again when its own
// NEW_VIEW is delivered back to it (onNewView calls rebroadcastPending for
// p == Self too), dropping the dedup stubs of what it proposed a few hundred
// microseconds earlier, so one request is proposed twice in one view. With
// that second call skipped the three sweeps read 20 / 4 / 0, 40 / 0 / 0 and
// 23 / 0 / 1, but the one soak seed left is tier-1's 17 and
// TestCrossShardLossyNetwork stops going quiet: it belongs with 3(b)-(d).
func TestKnownHoleHalfWindowSeeds(t *testing.T) {
	for _, sc := range []struct {
		name  string
		seeds []int64
		run   func(seed int64, logf func(string, ...any)) verdict
	}{
		{"rejoin", []int64{16, 21}, lossyRejoin},
		{"agreement", []int64{30}, preGSTAgreement},
		{"soak", []int64{1, 15, 18}, partitionChurnSoak},
	} {
		for _, seed := range sc.seeds {
			if v := sc.run(seed, t.Logf); v.kind == "diverged" {
				t.Errorf("%s seed %d %v", sc.name, seed, v)
			}
		}
	}
}
