package cluster_test

// The allocation budget table of a whole deployment's requests (one row per
// gate, TestAllocBudgets), held at the same budgets in a plain build and
// under the race detector. CHANGES.md holds the audit that measures what
// each recycler behind these readings pays for.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ctbcast"
	"repro/internal/sim"
)

// newFastPath deploys uBFT in its production configuration (Flip, seed 1);
// newSlowPath pins it to the signed slow path (CTBcast's slow path,
// Certify/Commit).
func newFastPath() *cluster.UBFT { return cluster.NewUBFT(cluster.Options{Seed: 1}) }

func newSlowPath() *cluster.UBFT {
	return cluster.NewUBFT(cluster.Options{Seed: 1, DisableFastPath: true, CTBMode: ctbcast.SlowOnly})
}

// flipStream returns the gates' request stream: a fresh random 64 B Flip
// payload per request.
func flipStream() func() []byte {
	rng := rand.New(rand.NewSource(1))
	return func() []byte {
		out := make([]byte, 64)
		rng.Read(out)
		return out
	}
}

// driveOne pushes a single closed-loop request through client 0.
func driveOne(t *testing.T, u *cluster.UBFT, next func() []byte) {
	t.Helper()
	done := false
	u.Clients[0].Invoke(next(), func([]byte, sim.Duration) { done = true })
	if cluster.SyncWait(u.Eng, 500*sim.Millisecond, func() bool { return done }) != nil {
		t.Fatal("request did not complete")
	}
}

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

// warmAllocs returns the heap allocations per request of a deployment's 200
// requests after 300 that warm it: encode buffers and ring mirrors grown,
// tables and free lists at their peak.
func warmAllocs(t *testing.T, u *cluster.UBFT) float64 {
	defer u.Stop()
	next := flipStream()
	for i := 0; i < 300; i++ {
		driveOne(t, u, next)
	}
	return allocsPer(200, func() { driveOne(t, u, next) })
}

// coldAllocs returns the heap allocations per request over a fresh
// deployment's first 300 requests, set-up excluded: the records and tables
// it grows as its load arrives, which the benchmark's short warm-up leaves
// in its measured window.
func coldAllocs(t *testing.T, u *cluster.UBFT) float64 {
	defer u.Stop()
	next := flipStream()
	return allocsPer(300, func() { driveOne(t, u, next) })
}

// TestAllocBudgets holds a whole deployment's requests to their budgets, on
// the fast path and the signed slow path (48 SWMR quorum operations and 288
// memory-node messages a request), warm and cold.
func TestAllocBudgets(t *testing.T) {
	for _, row := range []allocBudget{
		{"fast path", 3.33, 4,
			"a ring frame allocated per message (+11 a request), a fresh answer or reply per replica (+3), a slot, request, call or fallback record made anew (+1 to +4)",
			func(t *testing.T) float64 { return warmAllocs(t, newFastPath()) }},
		{"slow path", 4.07, 5,
			"closures per background signature (+0.6), a signature allocated per signing (+7), a certificate encoded apart (+4.5), fresh acks and echoes (+17), a map per decoded certificate (+16)",
			func(t *testing.T) float64 { return warmAllocs(t, newSlowPath()) }},
		{"cold fast path", 4.86, 6,
			"a record or crypto-pool job that makes a closure for its timer (+3.6)",
			func(t *testing.T) float64 { return coldAllocs(t, newFastPath()) }},
		{"cold slow path", 7.65, 9,
			"a member's register handles, their queues or a register's cooldown allocated apart (+12), a summary's state copied per share (+0.35)",
			func(t *testing.T) float64 { return coldAllocs(t, newSlowPath()) }},
	} {
		t.Run(row.name, row.check)
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

	u := newSlowPath()
	defer u.Stop()
	reg := u.Registry
	next := flipStream()
	for i := 0; i < 300; i++ {
		driveOne(t, u, next)
	}
	c0, r0 := reg.Verifications()
	for i := 0; i < requests; i++ {
		driveOne(t, u, next)
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
