package shard_test

import (
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/shard"
	"repro/internal/sim"
)

// crossShardAllocBudget bounds the heap allocations of one warm cross-shard
// operation, a 2PC MSET or a scatter MGET over two RKV shards, everything
// included: client, replicas, the stores and InvokeSync itself. It is the
// measured 11.90 plus 15%, rounded up; it reads 10.40 since a merged scatter
// read copies each value once, from its leg into the result (11.40 while it
// copied each out of its leg first). The count was 18.91
// while the LockTable made a string for every key it locked and the shard
// client encoded every 2PC command and fragment into a fresh slice, 22 while
// a store's callers copied each value before the store saw it (the SET's and
// the fragment's decode, the staged fragment) and 62 while the shard client
// made its plans, transactions, fan-outs and scatter reads afresh per
// operation, the keyed stores decoded a fragment's keys into fresh slices,
// the LockTable made a staged record per prepare and replicas decoded each
// batch container into a fresh array.
const crossShardAllocBudget = 14

// allocsPer returns the heap allocations per call of f over n calls, as a
// fraction: testing.AllocsPerRun's integer quotient would let a gate miss up
// to 0.99 allocations a call.
func allocsPer(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// newCrossShard deploys two RKV shards (seed 1) and returns them with a
// function that runs two cross-shard operations back to back: a 2PC MSET and
// a scatter MGET over one key on each shard.
func newCrossShard(t *testing.T) (*shard.Deployment, func()) {
	d := shard.New(shard.Options{Seed: 1, Shards: 2, NewApp: func(int) app.StateMachine { return app.NewRKV() }})
	a, b := keyOnShard(t, 0, 2, 0), keyOnShard(t, 1, 2, 0)
	mset := app.EncodeRMSet(app.Pair{Key: a, Val: []byte("va")}, app.Pair{Key: b, Val: []byte("vb")})
	mget := app.EncodeRMGet(a, b)
	return d, func() {
		for _, req := range [][]byte{mset, mget} {
			res, _, err := d.InvokeSync(0, req, 50*sim.Millisecond)
			if err != nil || len(res) == 0 || res[0] != app.StatusOK {
				t.Fatalf("cross-shard op %x: res=%v err=%v", req[0], res, err)
			}
		}
	}
}

// TestCrossShardAllocBudget: once warm, a cross-shard operation allocates
// what the stores keep (the written values) and little else: the shard
// client's records and the commands and fragments they encode into buffers
// they keep, the LockTable's staged records, their fragment buffers and the
// lock keys that view them, and the replicas' slot and request records are
// recycled or carved from blocks.
func TestCrossShardAllocBudget(t *testing.T) {
	d, pair := newCrossShard(t)
	defer d.Stop()
	// Several checkpoint windows of slots: every table and free list at its
	// peak before the count starts.
	for i := 0; i < 600; i++ {
		pair()
	}
	perOp, budget := allocsPer(200, pair)/2, crossShardAllocBudget
	t.Logf("%.2f allocations per warm cross-shard operation (budget %d)", perOp, budget)
	if perOp > float64(budget) {
		t.Fatalf("%.2f allocations per warm cross-shard operation, budget %d", perOp, budget)
	}
}

// TestColdCrossShardAllocBudget bounds the heap allocations per operation of
// a fresh deployment's first 300 cross-shard operations, set-up excluded:
// what the warm gate above does not see, the shard client's records, the
// replicas' tables and the stores growing toward their peak as the load
// arrives. Measured at 15.79 when this budget was set; the ceiling is that
// plus 15%, rounded up.
func TestColdCrossShardAllocBudget(t *testing.T) {
	const budget = 19
	d, pair := newCrossShard(t)
	defer d.Stop()
	perOp := allocsPer(150, pair) / 2
	t.Logf("%.2f allocations per cold cross-shard operation (budget %d)", perOp, budget)
	if perOp > budget {
		t.Fatalf("%.2f allocations per cold cross-shard operation, budget %d", perOp, budget)
	}
}

// TestFastReadAllocBudget asserts the unordered read fast path allocates
// strictly less than the ordered request budget — a read that skips the
// whole ordering pipeline must not cost more heap than one that runs it.
// Measured at 2 allocs/read when this budget was set (2.02 once the gate
// counted fractions, allocsPer), since request frames
// and free-list misses are carved from blocks; 4 while each was an
// allocation of its own, since a multi-key
// read's keys go into a slice the store keeps; 6 while that slice was fresh,
// since a reply frame the client does not hand out goes back to the router's
// free list, a store appends each answer into one buffer of its own and
// single-key routing reuses its key slice; 10 while each of those was
// fresh, since a read's record and its result classes are reused and replies
// are read in place; 17 while each read made a record, a class map and a
// wrapper closure and copied
// every reply, ~18 before that once a read asked f+1 replicas first, ~23 when
// every read went to all 2f+1 (vs ~139 for an ordered write on the same
// deployment and ~119 on the single-cluster fast path, both before the
// replica's state tables were merged). The ceiling is 2 plus 15%, rounded
// up, ratcheted from 30 to 12, then 7, 5 and 3: a request frame or a reply
// frame allocated per read again, a record, a reply copy, a fresh answer or a
// fresh key slice per read coming back trips it.
func TestFastReadAllocBudget(t *testing.T) {
	const budget = 3

	d := shard.New(shard.Options{
		Seed:      1,
		NewApp:    func(int) app.StateMachine { return app.NewKV(0) },
		FastReads: true,
	})
	defer d.Stop()
	drive := func(payload []byte) {
		fired := false
		if _, err := d.Client(0).Invoke(payload, func([]byte, sim.Duration) { fired = true }); err != nil {
			t.Fatal(err)
		}
		for !fired {
			if !d.Eng.Step() {
				t.Fatal("engine ran dry")
			}
		}
	}
	key := []byte("alloc-probe-key!")
	drive(app.EncodeKVSet(key, []byte("value")))
	read := app.EncodeKVMGet(key)
	// Warm up: pools, response maps, replica read path.
	for i := 0; i < 300; i++ {
		drive(read)
	}
	avg := allocsPer(200, func() { drive(read) })
	t.Logf("fast read: %.2f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("fast read allocates %.2f/request, budget is %d", avg, budget)
	}
	if fast, fb := d.Client(0).ReadStats(); fast == 0 || fb != 0 {
		t.Fatalf("reads did not stay on the fast path: fast=%d fallbacks=%d", fast, fb)
	}
}

// TestPointReadAllocBudget extends the read budget to the versioned
// single-key point read (KVGet through the MVCC store): the smallest
// request the fast path serves must stay in the same allocation class as
// the multi-key read above — versioned chains must not add per-read churn.
// Measured at 2 allocs/read when this budget was set, 2.02 once the gate
// counted fractions (4 while request frames
// and free-list misses were allocations of their own, 8 while reply frames,
// read answers and routed key slices were fresh, 15 before read records were
// reused, ~16 and ~20 earlier); the ceiling is that plus 15%, rounded up,
// ratcheted from 30 to 10, then 5 and then 3.
func TestPointReadAllocBudget(t *testing.T) {
	const budget = 3

	d := shard.New(shard.Options{
		Seed:      1,
		NewApp:    func(int) app.StateMachine { return app.NewKV(0) },
		FastReads: true,
	})
	defer d.Stop()
	drive := func(payload []byte) {
		fired := false
		if _, err := d.Client(0).Invoke(payload, func([]byte, sim.Duration) { fired = true }); err != nil {
			t.Fatal(err)
		}
		for !fired {
			if !d.Eng.Step() {
				t.Fatal("engine ran dry")
			}
		}
	}
	key := []byte("alloc-probe-key!")
	drive(app.EncodeKVSet(key, []byte("value")))
	read := app.EncodeKVGet(key)
	for i := 0; i < 300; i++ {
		drive(read)
	}
	avg := allocsPer(200, func() { drive(read) })
	t.Logf("point read: %.2f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("point read allocates %.2f/request, budget is %d", avg, budget)
	}
	if fast, fb := d.Client(0).ReadStats(); fast == 0 || fb != 0 {
		t.Fatalf("point reads did not stay on the fast path: fast=%d fallbacks=%d", fast, fb)
	}
}
