package bench

// Allocation-budget regression tests for the hot path. The zero-allocation
// work (pooled wire buffers, zero-copy decode, digest caching, pooled sim
// events) is enforced here: if a change reintroduces per-message churn on
// the fast path, these budgets fail long before a human notices the
// latency benchmarks drifting.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wire"
)

// driveOne pushes a single closed-loop request through the system.
func driveOne(t *testing.T, s System, wl Workload) {
	t.Helper()
	eng := s.Engine()
	done := false
	s.Invoke(wl.Next(), func(_ []byte, _ sim.Duration) { done = true })
	deadline := eng.Now().Add(maxWait)
	for !done && eng.Now() < deadline {
		if !eng.Step() {
			break
		}
	}
	if !done {
		t.Fatal("request did not complete")
	}
}

// raceAllocs, raceSlowAllocs and raceReadAllocs are what the race detector
// adds to a fast-path request, a slow-path request and a fast read
// (race_test.go); 0 in a plain build.
var raceAllocs, raceSlowAllocs, raceReadAllocs int

// TestFastPathAllocBudget asserts a ceiling on heap allocations per
// end-to-end request on uBFT's fast path, in steady state (pools warm, ring
// mirrors grown, consensus tables populated, their free lists filled).
// Measured at 25 allocs/request when this budget was set: what is left is
// the immutable ring, reply, ack and echo frames, the application's results
// and the harness. It read 45 while every slot, request, client call and
// CTBcast fallback record was made anew per operation with its timer
// closure, 47 while the client copied its request once per replica, 75 while
// the router copied every ring frame once per receiver and the broadcaster
// copied it again for its self-delivery (~800 before the zero-allocation
// work, ~118 while every slot, request and client was spread over parallel
// maps); the ceiling is that plus 15%, so a per-operation record made anew
// (1 to 4 allocations a request each) trips it, as does a per-receiver frame
// copy or reintroduced per-message encode/decode churn (hundreds).
func TestFastPathAllocBudget(t *testing.T) {
	budget := 29 + raceAllocs

	s := NewUBFTFast(1, nil)
	defer s.Stop()
	wl := NewFlipWorkload(64, rand.New(rand.NewSource(1)))
	// Warm up: fill buffer pools, grow ring mirrors, populate window maps.
	for i := 0; i < 300; i++ {
		driveOne(t, s, wl)
	}
	avg := testing.AllocsPerRun(200, func() { driveOne(t, s, wl) })
	t.Logf("fast path: %.1f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("fast path allocates %.1f/request, budget is %d", avg, budget)
	}
}

// TestSlowPathAllocBudget asserts a ceiling on heap allocations per
// end-to-end request on the signed slow path, in steady state. A request there
// makes 48 SWMR quorum operations on three memory nodes (288 memory-node
// messages), so a copy per memory node or per completion costs 144 a request.
// Measured at 300 allocs/request when this budget was set, ~1300 while every
// register request was copied once per memory node, every completion twice
// and a READ's region three times; the ceiling is that plus 15%.
func TestSlowPathAllocBudget(t *testing.T) {
	budget := 345 + raceSlowAllocs

	s := NewUBFTSlow(1, nil)
	defer s.Stop()
	wl := NewFlipWorkload(64, rand.New(rand.NewSource(1)))
	for i := 0; i < 300; i++ {
		driveOne(t, s, wl)
	}
	avg := testing.AllocsPerRun(200, func() { driveOne(t, s, wl) })
	t.Logf("slow path: %.1f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("slow path allocates %.1f/request, budget is %d", avg, budget)
	}
}

// TestSlowPathVerifiesEachSignatureOnce holds the host gain of the verified-
// signature table with a count, which repeats where host CPU does not. Over
// the same 200 steady-state slow-path requests as the budget above, the
// deployment's Registry must compute at most 1 ed25519 verification a
// request (0.07 when this was set, since a signature enters the table when
// its signer makes it; 7.2 while only a check filled the table, 18.2 while
// every call computed its own), and answer exactly the 3617 verification
// calls the code makes: a verification call removed, not reused, fails it.
// (3649 until the CTBcast summary and checkpoint collectors stopped
// verifying the broadcaster's own summary share and the shares a certificate
// no longer needs.)
func TestSlowPathVerifiesEachSignatureOnce(t *testing.T) {
	const requests, calls = 200, 3617

	s := NewUBFTSlow(1, nil)
	defer s.Stop()
	reg := s.(*ubftSystem).c.Registry
	wl := NewFlipWorkload(64, rand.New(rand.NewSource(1)))
	for i := 0; i < 300; i++ {
		driveOne(t, s, wl)
	}
	c0, r0 := reg.Verifications()
	for i := 0; i < requests; i++ {
		driveOne(t, s, wl)
	}
	c1, r1 := reg.Verifications()
	computed, reused := c1-c0, r1-r0
	t.Logf("slow path: %.2f ed25519 computations and %.2f reused verdicts a request",
		float64(computed)/requests, float64(reused)/requests)
	if computed > requests {
		t.Errorf("slow path computes %.2f verifications a request, budget is 1", float64(computed)/requests)
	}
	if computed+reused != calls {
		t.Errorf("slow path made %d verification calls over %d requests, want %d", computed+reused, requests, calls)
	}
}

// TestFastReadAllocBudget asserts the unordered read fast path allocates
// strictly less than the ordered request budget — a read that skips the
// whole ordering pipeline must not cost more heap than one that runs it.
// Measured at 10 allocs/read when this budget was set, since a read's record
// and its result classes are reused and replies are read in place; 17 while
// each read made a record, a class map and a wrapper closure and copied
// every reply, ~18 before that once a read asked f+1 replicas first, ~23 when
// every read went to all 2f+1 (vs ~139 for an ordered write on the same
// deployment and ~119 on the single-cluster fast path, both before the
// replica's state tables were merged). The ceiling is 10 plus 15%, ratcheted
// from 30: a record or a reply copy per read coming back trips it.
func TestFastReadAllocBudget(t *testing.T) {
	budget := 12 + raceReadAllocs

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
	avg := testing.AllocsPerRun(200, func() { drive(read) })
	t.Logf("fast read: %.1f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("fast read allocates %.1f/request, budget is %d", avg, budget)
	}
	if fast, fb := d.Client(0).ReadStats(); fast == 0 || fb != 0 {
		t.Fatalf("reads did not stay on the fast path: fast=%d fallbacks=%d", fast, fb)
	}
}

// TestPointReadAllocBudget extends the read budget to the versioned
// single-key point read (KVGet through the MVCC store): the smallest
// request the fast path serves must stay in the same allocation class as
// the multi-key read above — versioned chains must not add per-read churn.
// Measured at 8 allocs/read when this budget was set (15 before read records
// were reused, ~16 and ~20 earlier); the ceiling is that plus 15%, ratcheted
// from 30.
func TestPointReadAllocBudget(t *testing.T) {
	budget := 10 + raceReadAllocs

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
	avg := testing.AllocsPerRun(200, func() { drive(read) })
	t.Logf("point read: %.1f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("point read allocates %.1f/request, budget is %d", avg, budget)
	}
	if fast, fb := d.Client(0).ReadStats(); fast == 0 || fb != 0 {
		t.Fatalf("point reads did not stay on the fast path: fast=%d fallbacks=%d", fast, fb)
	}
}

// TestWirePooledEncodeAllocFree asserts that steady-state encoding through
// the writer pool is completely allocation-free.
func TestWirePooledEncodeAllocFree(t *testing.T) {
	payload := make([]byte, 256)
	// Prime the pool so the first Get does not count.
	w := wire.GetWriter(512)
	wire.PutWriter(w)
	avg := testing.AllocsPerRun(100, func() {
		w := wire.GetWriter(512)
		w.U8(1)
		w.U64(42)
		w.Bytes(payload)
		r := wire.NewReader(w.Finish())
		r.U8()
		r.U64()
		if v := r.BytesView(); len(v) != len(payload) {
			t.Fatal("bad round trip")
		}
		wire.PutWriter(w)
	})
	if avg != 0 {
		t.Errorf("pooled encode/decode allocates %.1f/op, want 0", avg)
	}
}

// retainedObjects returns how many heap objects build's result keeps alive.
func retainedObjects(build func() any) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	return int(after.HeapObjects) - int(before.HeapObjects)
}

// TestSetupObjectBudget bounds what a deployment's constructors leave on the
// heap. A structure made per ring slot, per register or per tail entry at
// set-up multiplies by thousands (one closure per ring slot was 52% of a
// single group's 23,529 objects, a register handle per peer slot another
// 15%; a 4-shard deployment held 94,094), so it shows here long before it
// shows as heap_live_mib. Measured 7.6k and 30k when the budgets were set.
func TestSetupObjectBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget int
		build  func() any
	}{
		{"cluster.Build default", 10_000, func() any {
			u, err := cluster.Build(cluster.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return u
		}},
		{"shard.Build RKV S=4", 40_000, func() any {
			d, err := shard.Build(shard.Options{Seed: 1, Shards: 4,
				NewApp: func(int) app.StateMachine { return app.NewRKV() }})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		n := retainedObjects(c.build)
		t.Logf("%s retains %d heap objects (budget %d)", c.name, n, c.budget)
		if n > c.budget {
			t.Errorf("%s retains %d heap objects, budget is %d", c.name, n, c.budget)
		}
	}
}
