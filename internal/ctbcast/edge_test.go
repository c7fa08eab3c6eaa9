package ctbcast

// Edge-case and mode tests complementing ctbcast_test.go.

import (
	"fmt"
	"testing"

	"repro/internal/ids"
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
	payload := func(b ids.ID, k uint64, dg [xcrypto.DigestLen]byte) []byte {
		w := wire.NewWriter(64)
		appendSignedPayload(w, b, k, dg)
		return w.Finish()
	}
	base := payload(0, 1, dgA)
	for _, other := range [][]byte{
		payload(1, 1, dgA), // different broadcaster
		payload(0, 2, dgA), // different identifier
		payload(0, 1, dgB), // different fingerprint
	} {
		if string(base) == string(other) {
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
	encodeRegValue(vw, 2, dg, h.reg.Signer(0).Sign(proc, signedPayload(0, 2, dg)))
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
