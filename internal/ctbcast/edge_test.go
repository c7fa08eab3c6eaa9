package ctbcast

// Edge-case and mode tests complementing ctbcast_test.go.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/sim"
	"repro/internal/swmr"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

func TestBothEagerModeDelivers(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: BothEager})
	defer h.stopAll()
	for i := 0; i < 3; i++ {
		h.groups[0].Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	h.run(20 * sim.Millisecond)
	for member, got := range h.got {
		if len(got) != 3 {
			t.Fatalf("member %d delivered %d/3", member, len(got))
		}
	}
	// In eager mode both paths complete (the counters track path
	// completions), but deliver_once ensured the app saw each message
	// exactly once — that is the assertion above. Both paths ran:
	g := h.groups[1]
	if g.FastDeliveries == 0 || g.SlowDeliveries == 0 {
		t.Fatalf("eager mode should exercise both paths: fast=%d slow=%d",
			g.FastDeliveries, g.SlowDeliveries)
	}
}

func TestFastWithFallbackCleanRunNeverSigns(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastWithFallback, slowDelay: 500 * sim.Microsecond})
	defer h.stopAll()
	for i := 0; i < 5; i++ {
		h.groups[0].Broadcast([]byte("clean"))
	}
	h.run(5 * sim.Millisecond)
	for member, g := range h.groups {
		if g.SlowDeliveries != 0 {
			t.Fatalf("member %d used the slow path on a clean run", member)
		}
		if len(h.got[member]) != 5 {
			t.Fatalf("member %d delivered %d/5", member, len(h.got[member]))
		}
	}
}

func TestOutOfTailRegisterAliasing(t *testing.T) {
	// Algorithm 1 lines 35-36: a receiver reading a register that already
	// holds a HIGHER identifier aliasing to the same slot (k' > k, k' ≡ k
	// mod t) must drop its own out-of-tail message rather than deliver it.
	h := newHarness(t, hopts{f: 1, mode: SlowOnly, tail: 4})
	defer h.stopAll()
	g0 := h.groups[0]
	// Broadcast k=1..5; k=5 aliases k=1's registers (tail 4).
	for i := 0; i < 5; i++ {
		g0.Broadcast([]byte(fmt.Sprintf("m%d", i+1)))
		h.run(10 * sim.Millisecond)
	}
	h.run(20 * sim.Millisecond)
	// All members delivered a FIFO prefix; whoever delivered k=5 did so
	// only after k=1 (never out of order), and nobody delivered k=1 after
	// its slot was reused.
	for member, got := range h.got {
		for i := 1; i < len(got); i++ {
			if got[i].k != got[i-1].k+1 {
				t.Fatalf("member %d FIFO broken: %+v", member, got)
			}
		}
	}
}

func TestRegisterValueCodec(t *testing.T) {
	var dg [xcrypto.DigestLen]byte
	for i := range dg {
		dg[i] = byte(i)
	}
	sig := make([]byte, xcrypto.SigLen)
	for i := range sig {
		sig[i] = byte(255 - i)
	}
	vw := wire.NewWriter(registerValueCap)
	encodeRegValue(vw, 42, dg, sig)
	v := vw.Finish()
	if len(v) != registerValueCap {
		t.Fatalf("encoded register value %dB, want %d", len(v), registerValueCap)
	}
	k2, dg2, sig2, err := decodeRegValue(v)
	if err != nil || k2 != 42 || dg2 != dg || string(sig2) != string(sig) {
		t.Fatalf("round trip: k=%d err=%v", k2, err)
	}
	if _, _, _, err := decodeRegValue(v[:10]); err == nil {
		t.Fatal("truncated register value accepted")
	}
}

func TestSignedPayloadBindsFields(t *testing.T) {
	var dgA, dgB [xcrypto.DigestLen]byte
	dgB[0] = 1
	payload := func(b ids.ID, k uint64, dg [xcrypto.DigestLen]byte) string {
		st := xcrypto.Signed(b, k, dg)
		return string(st.Bytes())
	}
	base := payload(0, 1, dgA)
	for _, other := range []string{
		payload(1, 1, dgA), // different broadcaster
		payload(0, 2, dgA), // different identifier
		payload(0, 1, dgB), // different fingerprint
	} {
		if base == other {
			t.Fatal("signed payload does not bind all fields")
		}
	}
}

func TestMalformedInnerMessagesIgnored(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly})
	defer h.stopAll()
	g := h.groups[1]
	// Garbage on the broadcaster channel and the LOCKED channel must not
	// panic or deliver.
	g.onBroadcasterMsg(0, []byte{})
	g.onBroadcasterMsg(0, []byte{tagLock})
	g.onBroadcasterMsg(0, []byte{tagSigned, 1, 2})
	g.onBroadcasterMsg(0, []byte{0x99, 1, 2, 3})
	g.onLockedMsg(2, []byte{})
	g.onLockedMsg(2, []byte{tagLocked, 1})
	w := wire.NewWriter(16)
	w.U8(tagLock)
	w.U64(0) // identifier zero is invalid (identifiers are 1-based)
	w.Bytes([]byte("x"))
	g.onBroadcasterMsg(0, w.Finish())
	h.run(sim.Millisecond)
	if len(h.got[1]) != 0 {
		t.Fatalf("malformed messages delivered: %+v", h.got[1])
	}
}

func TestDisaggregatedFootprintFormula(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly, tail: 8})
	defer h.stopAll()
	want := 3 * 8 * swmr.RegionSize(registerValueCap)
	if got := h.groups[0].AllocatedDisaggregatedBytes(); got != want {
		t.Fatalf("disaggregated bytes = %d, want %d", got, want)
	}
}

func TestSlowPathReadsPeerRegistersByRegion(t *testing.T) {
	// A member keeps no handle for a peer's register: the slow path names it
	// by region, member i's register for identifier k being RegionBase +
	// i*t + k%t. Plant, in exactly that region and nowhere else, a signed
	// conflicting value for k=2 under member 2's name, keep member 2 itself
	// out of the run, and the others must find it on their first-ever read of
	// member 2's registers and refuse k=2 (Algorithm 1 lines 33-34), while
	// k=1, whose slot holds nothing, is delivered.
	const tail, base = 4, 40
	h := newHarness(t, hopts{f: 1, mode: SlowOnly, tail: tail, regionBase: base})
	defer h.stopAll()
	h.net.Partition(0, 2)
	proc := h.envs[2].Proc
	dg := xcrypto.Digest(proc, []byte("other"))
	vw := wire.NewWriter(registerValueCap)
	st := xcrypto.Signed(0, 2, dg)
	encodeRegValue(vw, 2, dg, h.reg.Signer(0).Sign(proc, st.Bytes()))
	planted := false
	swmr.NewRegister(h.envs[2].Store, base+2*tail+2%tail, registerValueCap).
		Write(2, vw.Finish(), func(err error) { planted = err == nil })
	h.run(sim.Millisecond)
	if !planted {
		t.Fatal("could not plant the conflicting register value")
	}
	h.groups[0].Broadcast([]byte("m1"))
	h.groups[0].Broadcast([]byte("m2"))
	h.run(20 * sim.Millisecond)
	for member := 0; member <= 1; member++ {
		got := h.got[member]
		if len(got) != 1 || got[0].k != 1 || got[0].m != "m1" {
			t.Fatalf("member %d delivered %+v, want k=1 only: the conflict in region %d was not read", member, got, base+2*tail+2%tail)
		}
		if h.groups[member].SlowDeliveries != 1 {
			t.Fatalf("member %d made %d slow-path deliveries, want 1", member, h.groups[member].SlowDeliveries)
		}
	}
}

// A SUMMARY frame's signature count is the broadcaster's claim: a receiver
// must check it before sizing anything by it, and a certificate with more
// signatures than a group has members is refused however many are good.
func TestSummaryWithAbsurdSignatureCountIsDropped(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly})
	defer h.stopAll()
	g := h.groups[1]
	summary := func(count uint64, sigs ...xcrypto.Signature) []byte {
		w := wire.NewWriter(32 + len(sigs)*(xcrypto.SigLen+16))
		w.U8(tagSummary)
		w.U64(4)
		w.Bytes(nil)
		w.Uvarint(count)
		for i, sig := range sigs {
			w.I64(int64(i))
			w.Bytes(sig)
		}
		return w.Finish()
	}
	untouched := func(what string) {
		t.Helper()
		if g.nextDeliver != 1 || g.SummariesUsed != 0 || g.byzBlocked {
			t.Fatalf("%s: nextDeliver=%d SummariesUsed=%d byzBlocked=%v", what, g.nextDeliver, g.SummariesUsed, g.byzBlocked)
		}
	}

	absurd := summary(1 << 24) // and nothing after the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.onBroadcasterMsg(0, absurd)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a %d-byte SUMMARY claiming 2^24 signatures made the receiver allocate %d bytes", len(absurd), got)
	}
	untouched("count 2^24")

	// 65 well-formed entries, the members' three among them genuine.
	sigs := make([]xcrypto.Signature, 65)
	st := xcrypto.SummaryShare(0, 4, []byte(nil))
	for i := range sigs {
		sigs[i] = make(xcrypto.Signature, xcrypto.SigLen)
		if i < len(h.procs) {
			sigs[i] = h.reg.Signer(ids.ID(i)).Sign(sim.NewProc(h.eng, "signing"), st.Bytes())
		}
	}
	g.onBroadcasterMsg(0, summary(65, sigs...))
	untouched("65 entries")
	// The same three alone are a certificate.
	g.onBroadcasterMsg(0, summary(3, sigs[:3]...))
	if g.nextDeliver != 5 || g.SummariesUsed != 1 {
		t.Fatalf("genuine certificate not applied: nextDeliver=%d SummariesUsed=%d", g.nextDeliver, g.SummariesUsed)
	}
}

// The broadcaster collects summary shares only for identifiers that can
// still be certified — broadcast, on the t/2 grid, above the last summary —
// and one per signer, so the share table holds at most two sets of n.
func TestSummarySharesBounded(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly, tail: 8})
	defer h.stopAll()
	g := h.groups[0]
	signing := sim.NewProc(h.eng, "signing")
	share := func(from ids.ID, id uint64, state string) {
		st := xcrypto.SummaryShare(0, id, state)
		sig := h.reg.Signer(from).Sign(signing, st.Bytes())
		g.onSummaryShare(from, id, []byte(state), sig)
		h.run(sim.Millisecond)
	}
	// Cut the broadcaster off: nothing delivers, so no member certifies
	// anything on its own and every share below is this test's.
	h.net.Partition(0, 1)
	h.net.Partition(0, 2)

	// collecting counts the summary collectors holding shares.
	collecting := func() int {
		n := 0
		for _, c := range g.shareStates {
			if len(c.shares) > 0 {
				n++
			}
		}
		return n
	}
	share(1, 4, "early")
	if collecting() != 0 {
		t.Fatalf("share for an identifier never broadcast was kept: %v", g.shareStates)
	}
	for i := 0; i < 6; i++ {
		g.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	share(1, 6, "off the grid")
	share(1, 8, "not broadcast yet")
	if collecting() != 0 {
		t.Fatalf("shares for identifiers that cannot be certified were kept: %v", g.shareStates)
	}
	for i := 0; i < 8; i++ {
		share(1, 4, fmt.Sprintf("state %d", i))
	}
	if collecting() != 1 || len(g.collector(4).shares) != 1 {
		t.Fatalf("8 states by one signer for one identifier: %v", g.shareStates)
	}
	share(2, 4, "state 0")
	if g.lastSummary != 4 || collecting() != 0 {
		t.Fatalf("f+1 shares over one state: lastSummary=%d, table %v", g.lastSummary, g.shareStates)
	}
}

// TestSummaryForgedShareCostsOneVerification: with the broadcaster's own share
// in, a summary certificate lacks one share, so of two follower shares only
// the first goes to the crypto pool and the second is held. A forged first
// share costs the pool exactly one more verification: the held share is
// verified next and the certificate forms from it.
func TestSummaryForgedShareCostsOneVerification(t *testing.T) {
	const oneVerify = latmodel.VerifyCost + latmodel.CryptoDispatchCost
	for _, forgedFirst := range []bool{false, true} {
		h := newHarness(t, hopts{f: 1, mode: FastOnly, tail: 8})
		g := h.groups[0]
		signing := sim.NewProc(h.eng, "signing")
		const id, state = 4, "state at 4"
		st := xcrypto.SummaryShare(0, id, state)
		sign := func(from ids.ID) xcrypto.Signature { return h.reg.Signer(from).Sign(signing, st.Bytes()) }
		// Cut the broadcaster off, so that every share is this test's.
		h.net.Partition(0, 1)
		h.net.Partition(0, 2)
		for i := 0; i < 6; i++ {
			g.Broadcast([]byte(fmt.Sprintf("m%d", i)))
		}
		g.collector(id).shares.Add(0, state, sign(0)) // the broadcaster's own, taken as signed
		first := sign(1)
		if forgedFirst {
			first[0] ^= 1
		}
		pool := g.env.BgProc
		start := max(pool.BusyUntil(), h.eng.Now())
		g.onSummaryShare(1, id, []byte(state), first)
		g.onSummaryShare(2, id, []byte(state), sign(2))
		if got := pool.BusyUntil() - start; got != sim.Time(oneVerify) {
			t.Fatalf("two follower shares sent %v of work to the pool, want one verification (%v)", got, oneVerify)
		}
		h.run(sim.Millisecond)
		want := sim.Time(oneVerify)
		if forgedFirst {
			want *= 2
		}
		if got := pool.BusyUntil() - start; got != want || g.lastSummary != id {
			t.Errorf("forged first share %v: pool busy %v (want %v), last summary %d (want %d)",
				forgedFirst, got, want, g.lastSummary, id)
		}
		h.stopAll()
	}
}
