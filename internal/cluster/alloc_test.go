package cluster_test

// Allocation budgets for a whole deployment's requests, fast path and
// signed slow path, in steady state and from a fresh start, at the same
// budgets in a plain build and under the race detector. The zero-allocation
// work (encode buffers their owners keep, carved frames, zero-copy decode,
// recycled records, pooled sim events) is enforced here: if a change
// reintroduces per-message churn, these budgets fail long before a human
// notices the latency benchmarks drifting.

import (
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

// TestFastPathAllocBudget asserts a ceiling on heap allocations per
// end-to-end request on uBFT's fast path, in steady state (pools warm, ring
// mirrors grown, consensus tables populated, their free lists filled).
// Measured at 3 allocs/request when this budget was set, 3.33 once the gate
// counted fractions (allocsPer): what is left is the
// harness and a share of the blocks the ring frames, the client's request
// frames and the free list's misses are carved from. It read 15 while every
// ring frame, request frame and free-list miss was an allocation of its own
// (some 11 ring frames, the request and the one reply frame a call hands its
// caller), 18 while every replica's Flip answered into a fresh
// slice (3 a request), 20 while every reply frame
// was fresh (3 a request), 25 while every ring ack and echo was a fresh frame, 45
// while every slot, request, client call and CTBcast fallback record was
// made anew per operation with its timer closure, 47 while the client copied its request once per replica, 75 while
// the router copied every ring frame once per receiver and the broadcaster
// copied it again for its self-delivery (~800 before the zero-allocation
// work, ~118 while every slot, request and client was spread over parallel
// maps); the ceiling is that plus 15%, rounded up (18 while it read 15, 21
// while it read 18), so a ring frame allocated per message again (some 11), a
// fresh answer per replica (3), a per-operation record made anew (1 to 4
// allocations a request each) trips it, as does a per-receiver frame copy or
// reintroduced per-message encode/decode churn (hundreds).
func TestFastPathAllocBudget(t *testing.T) {
	const budget = 4

	u := newFastPath()
	defer u.Stop()
	next := flipStream()
	// Warm up: grow encode buffers and ring mirrors, populate window maps.
	for i := 0; i < 300; i++ {
		driveOne(t, u, next)
	}
	avg := allocsPer(200, func() { driveOne(t, u, next) })
	t.Logf("fast path: %.2f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("fast path allocates %.2f/request, budget is %d", avg, budget)
	}
}

// TestSlowPathAllocBudget asserts a ceiling on heap allocations per
// end-to-end request on the signed slow path, in steady state. A request there
// makes 48 SWMR quorum operations on three memory nodes (288 memory-node
// messages), so a copy per memory node or per completion costs 144 a request.
// Measured at 4 allocs/request when this budget was set, 4.08 once the gate
// counted fractions (allocsPer), since a background
// signature or verification is a job its signer reuses; 5 while each made
// two closures, since a signature is
// carved from a block its signer owns, a COMMIT's and a SUMMARY's certificate
// is appended into the message that carries it and a certified state is
// encoded into a buffer sized once; 18 while each signature was ed25519's own
// allocation (some 7 a request), each sent certificate was encoded on its own
// and copied in (4.5) and a certified state grew its writer a dozen times
// (2.3); 18 when set before that, since ring frames,
// request frames and free-list misses are carved from blocks; 26 while each
// was an allocation of its own, since every
// replica's Flip answers into one buffer it keeps; 29 while each answer was a
// fresh slice, since a reply frame
// the client does not hand out goes back to the router's free list; 31 while
// every reply frame was fresh, since a ring ack and an echo go back to the
// router's free list once read; 48 while each was
// a fresh frame (some 15 acks and 2 echoes a request), after a certificate
// came to be read in place as its encoded bytes, a CERTIFY signature a view
// of its frame and a slot's CERTIFY share sets kept with its recycled
// record; 85 while a decoded certificate was a map and
// those signatures and sets were copied and grown anew, 277 while every
// register request and completion was a fresh frame, 300 before that, ~1300
// while every register request was copied once per memory node, every
// completion twice and a READ's region three times. The ceiling is 4 plus
// 15%, rounded up (6 while it read 5, 21 while it read 18, 30 while it read
// 26, 34 while it read 29, 36 until replies were recycled): closures per
// background signature again (0.6), a signature allocated per signing
// again (7), a certificate encoded apart and copied in (4.5), a certified
// state's writer grown (2.3), ring frames allocated per message again (8),
// fresh answers and replies (5 a request), fresh acks and echoes (17), a map
// per decoded certificate (16) or a copy per CERTIFY signature (8) trips it.
func TestSlowPathAllocBudget(t *testing.T) {
	const budget = 5

	u := newSlowPath()
	defer u.Stop()
	next := flipStream()
	for i := 0; i < 300; i++ {
		driveOne(t, u, next)
	}
	avg := allocsPer(200, func() { driveOne(t, u, next) })
	t.Logf("slow path: %.2f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("slow path allocates %.2f/request, budget is %d", avg, budget)
	}
}

// coldAllocs returns the heap allocations per request over the first
// requests a fresh deployment s serves, set-up excluded: what the steady
// budgets above do not see, the records and tables the deployment grows as
// its load arrives.
func coldAllocs(t *testing.T, u *cluster.UBFT, requests int) float64 {
	t.Helper()
	defer u.Stop()
	next := flipStream()
	return allocsPer(requests, func() { driveOne(t, u, next) })
}

// TestColdFastPathAllocBudget bounds the heap allocations per request of a
// fresh deployment's first 300 fast-path requests, which the benchmark's
// short warm-up leaves in its measured window. Measured at 4.87 when this
// budget was set, since slot and request records, client calls, CTBcast
// fallbacks and crypto-pool jobs are their own timer handlers; 8.49 while
// each such record made a closure for its timer and each background
// signature or verification made two. The ceiling is that plus 15%, rounded
// up.
func TestColdFastPathAllocBudget(t *testing.T) {
	const budget = 6
	avg := coldAllocs(t, newFastPath(), 300)
	t.Logf("cold fast path: %.2f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("cold fast path allocates %.2f/request, budget is %d", avg, budget)
	}
}

// TestColdSlowPathAllocBudget is TestColdFastPathAllocBudget on the signed
// slow path. Measured at 7.93 when this budget was set, since a member's own
// register handles are made in one allocation at its first slow write, each
// with room for one queued write, and a register's cooldown is its own timer
// handler; 19.69 while each handle, its queue and each cooldown were an
// allocation apart and the records above made their closures. The ceiling
// is that plus 15%, rounded up. It reads 7.58 since a CTBcast summary's
// state is copied once per identifier and its share collector is kept.
func TestColdSlowPathAllocBudget(t *testing.T) {
	const budget = 10
	avg := coldAllocs(t, newSlowPath(), 300)
	t.Logf("cold slow path: %.2f allocs/request (budget %d)", avg, budget)
	if avg > float64(budget) {
		t.Errorf("cold slow path allocates %.2f/request, budget is %d", avg, budget)
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
