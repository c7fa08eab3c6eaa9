package consensus_test

// Tests for the two extensions beyond the paper's prototype: request
// batching (§9 names it as a known optimization) and memory-node sharing
// across independent replicated applications (§1/§2.3 motivate it), plus a
// randomized fault-injection soak test of the safety invariants.

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/outcome"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/xcrypto"
)

func TestBatchCodecRoundTrip(t *testing.T) {
	reqs := []consensus.Request{
		{Client: 200, Num: 1, Payload: []byte("a")},
		{Client: 201, Num: 7, Payload: []byte("bb")},
		{Client: 200, Num: 2, Payload: nil},
	}
	b := consensus.EncodeBatch(reqs)
	if !b.IsBatch() || b.IsNoOp() {
		t.Fatal("batch flags wrong")
	}
	got, err := consensus.DecodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].Client != 201 || got[1].Num != 7 {
		t.Fatalf("round trip: %+v", got)
	}
}

// TestSharedMemoryNodes runs two INDEPENDENT uBFT deployments (different
// replica sets, different applications) against the SAME three memory
// nodes, using RegionOffset to carve disjoint register spaces — the
// paper's "memory nodes are application-oblivious and can be shared among
// many applications" claim (§1).
func TestSharedMemoryNodes(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	memIDs := []ids.ID{100, 101, 102}
	var mns []*memnode.Node
	for i, id := range memIDs {
		rt := router.New(net.AddNode(id, fmt.Sprintf("mem%d", i)))
		mns = append(mns, memnode.New(rt))
	}

	mkDeployment := func(replicaBase, clientID int, offset memnode.RegionID, mkApp func() app.StateMachine) (reps []*consensus.Replica, client *consensus.Client, span memnode.RegionID) {
		var repIDs []ids.ID
		for i := 0; i < 3; i++ {
			repIDs = append(repIDs, ids.ID(replicaBase+i))
		}
		reg := xcrypto.NewRegistry(int64(replicaBase), append(append([]ids.ID{}, repIDs...), ids.ID(clientID)))
		cfg := func(self ids.ID, a app.StateMachine) consensus.Config {
			return consensus.Config{
				Self: self, Replicas: repIDs, MemNodes: memIDs, Fm: 1,
				Window: 16, Tail: 8, MsgCap: 512,
				SlowPathDelay: sim.Millisecond, ViewChangeTimeout: 2 * sim.Millisecond,
				RegionOffset: offset,
				App:          a,
			}
		}
		c0 := cfg(repIDs[0], mkApp())
		consensus.AllocateCluster(c0, mns)
		for _, id := range repIDs {
			rt := router.New(net.AddNode(id, fmt.Sprintf("r%d", id)))
			reps = append(reps, consensus.NewReplica(cfg(id, mkApp()), consensus.Deps{RT: rt, Registry: reg}))
		}
		crt := router.New(net.AddNode(ids.ID(clientID), fmt.Sprintf("client%d", clientID)))
		client = consensus.NewClient(crt, repIDs)
		return reps, client, c0.RegionSpan()
	}

	repsA, clientA, span := mkDeployment(0, 200, 0, func() app.StateMachine { return app.NewFlip() })
	repsB, clientB, _ := mkDeployment(10, 201, span, func() app.StateMachine { return app.NewKV(0) })
	defer func() {
		for _, r := range append(repsA, repsB...) {
			r.Stop()
		}
	}()

	var resA, resB []byte
	clientA.Invoke([]byte("shared"), func(res []byte, _ sim.Duration) { resA = res })
	clientB.Invoke(app.EncodeKVSet([]byte("k"), []byte("v")), func(res []byte, _ sim.Duration) { resB = res })
	eng.RunFor(50 * sim.Millisecond)
	if string(resA) != "derahs" {
		t.Fatalf("deployment A result: %q", resA)
	}
	if resB == nil || resB[0] != app.KVStored {
		t.Fatalf("deployment B result: %v", resB)
	}
	// Both deployments' registers live on the same nodes.
	if mns[0].AllocatedBytes == 0 {
		t.Fatal("no shared allocations recorded")
	}
}

// TestSoakWithPartitionChurn: the partitionChurnSoak scenario (lossy_test.go)
// at its tier-1 seeds.
func TestSoakWithPartitionChurn(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if v := partitionChurnSoak(seed, t.Logf); v.Kind != outcome.Pass {
				t.Fatal(v)
			}
		})
	}
}
