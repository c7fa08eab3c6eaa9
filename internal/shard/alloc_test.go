package shard_test

// The allocation budget table of the sharded path (one row per gate,
// TestAllocBudgets), held at the same budgets in a plain build and under the
// race detector. CHANGES.md holds the audit that measures what each recycler
// behind these readings pays for.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/shard"
	"repro/internal/sim"
)

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

// allocBudget is one row of a budget table: a gate's reading, the heap
// allocations per operation it measured when last set, and its budget, the
// reading plus 15%, rounded up. trips names what a budget that small
// catches coming back, with what each adds per operation; the history of
// each reading is in CHANGES.md.
type allocBudget struct {
	name    string
	reading float64
	budget  float64
	trips   string
	measure func(t *testing.T) float64
}

// check runs the row's measurement and fails t if it is over the budget, or
// if the budget is not the reading's plus 15%, rounded up.
func (row allocBudget) check(t *testing.T) {
	t.Helper()
	if want := math.Ceil(row.reading * 1.15); row.budget != want {
		t.Fatalf("budget %.0f for a reading of %.2f, want %.0f (reading + 15%%, rounded up)", row.budget, row.reading, want)
	}
	got := row.measure(t)
	t.Logf("%.2f allocations per operation (reading %.2f, budget %.0f)", got, row.reading, row.budget)
	if got > row.budget {
		t.Errorf("%.2f allocations per operation, budget %.0f: %s", got, row.budget, row.trips)
	}
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

// crossShardAllocs returns the heap allocations per cross-shard operation of
// a two-shard RKV deployment, everything included (client, replicas, the
// stores and InvokeSync): over 150 pairs of a fresh deployment (cold), or
// over 200 pairs after 600 that fill every table and free list (warm).
func crossShardAllocs(t *testing.T, warm bool) float64 {
	d, pair := newCrossShard(t)
	defer d.Stop()
	if !warm {
		return allocsPer(150, pair) / 2
	}
	for i := 0; i < 600; i++ {
		pair()
	}
	return allocsPer(200, pair) / 2
}

// readAllocs returns the heap allocations per fast read of one KV shard with
// FastReads on, over 200 reads after 300 that warm it, and fails t if a read
// left the fast path.
func readAllocs(t *testing.T, read []byte) float64 {
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
	drive(app.EncodeKVSet(probeKey, []byte("value")))
	for i := 0; i < 300; i++ {
		drive(read)
	}
	avg := allocsPer(200, func() { drive(read) })
	if fast, fb := d.Client(0).ReadStats(); fast == 0 || fb != 0 {
		t.Fatalf("reads did not stay on the fast path: fast=%d fallbacks=%d", fast, fb)
	}
	return avg
}

var probeKey = []byte("alloc-probe-key!")

// TestAllocBudgets holds the sharded path to its budgets: a warm and a cold
// cross-shard operation (a 2PC MSET or a scatter MGET over two RKV shards),
// and a fast multi-key read and a versioned point read, which skip the
// ordering pipeline and so must stay below an ordered request's budget.
func TestAllocBudgets(t *testing.T) {
	for _, row := range []allocBudget{
		{"cross-shard", 10.90, 13,
			"a string per locked key or a 2PC command encoded into a fresh slice (+7.5), a store's callers copying values (+3), plans, transactions and fan-outs made per operation (+40)",
			func(t *testing.T) float64 { return crossShardAllocs(t, true) }},
		{"cold cross-shard", 15.30, 18,
			"the shard client's records, the replicas' tables or the stores growing per operation instead of toward their peak",
			func(t *testing.T) float64 { return crossShardAllocs(t, false) }},
		{"fast read", 2.02, 3,
			"a request or reply frame allocated per read (+2), a record, a reply copy, a fresh answer or a fresh key slice per read (+2 to +15)",
			func(t *testing.T) float64 { return readAllocs(t, app.EncodeKVMGet(probeKey)) }},
		{"point read", 2.02, 3,
			"per-read churn in the versioned chains, a request or reply frame allocated per read (+2), fresh answers or routed key slices (+4)",
			func(t *testing.T) float64 { return readAllocs(t, app.EncodeKVGet(probeKey)) }},
	} {
		t.Run(row.name, row.check)
	}
}
