package shard_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/shard"
	"repro/internal/sim"
)

// crossShardAllocBudget bounds the heap allocations of one warm cross-shard
// operation, a 2PC MSET or a scatter MGET over two RKV shards, everything
// included: client, replicas, the stores and InvokeSync itself. It is the
// measured 19 plus 15%, rounded up. The count was 22 while a store's callers
// copied each value before the store saw it (the SET's and the fragment's
// decode, the staged fragment) and 62 while the shard client made its plans,
// transactions, fan-outs and scatter reads afresh per operation, the keyed
// stores decoded a fragment's keys into fresh slices, the LockTable made a
// staged record per prepare and replicas decoded each batch container into a
// fresh array.
const crossShardAllocBudget = 22

// raceCrossShardAllocs is what the race detector adds to a warm cross-shard
// operation (race_test.go); 0 in a plain build.
var raceCrossShardAllocs int

// TestCrossShardAllocBudget: once warm, a cross-shard operation allocates
// what the stores keep (the written values, the lock keys) and little else:
// the shard client's records, the LockTable's staged records and their
// fragment buffers and the replicas' slot and request records are recycled
// or carved from blocks.
func TestCrossShardAllocBudget(t *testing.T) {
	d := shard.New(shard.Options{Seed: 1, Shards: 2, NewApp: func(int) app.StateMachine { return app.NewRKV() }})
	defer d.Stop()
	a, b := keyOnShard(t, 0, 2, 0), keyOnShard(t, 1, 2, 0)
	mset := app.EncodeRMSet(app.Pair{Key: a, Val: []byte("va")}, app.Pair{Key: b, Val: []byte("vb")})
	mget := app.EncodeRMGet(a, b)
	pair := func() {
		for _, req := range [][]byte{mset, mget} {
			res, _, err := d.InvokeSync(0, req, 50*sim.Millisecond)
			if err != nil || len(res) == 0 || res[0] != app.StatusOK {
				t.Fatalf("cross-shard op %x: res=%v err=%v", req[0], res, err)
			}
		}
	}
	// Several checkpoint windows of slots: every table and free list at its
	// peak before the count starts.
	for i := 0; i < 600; i++ {
		pair()
	}
	perOp, budget := testing.AllocsPerRun(200, pair)/2, crossShardAllocBudget+raceCrossShardAllocs
	t.Logf("%.2f allocations per warm cross-shard operation (budget %d)", perOp, budget)
	if perOp > float64(budget) {
		t.Fatalf("%.2f allocations per warm cross-shard operation, budget %d", perOp, budget)
	}
}
