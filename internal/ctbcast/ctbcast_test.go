package ctbcast

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/swmr"
	"repro/internal/tbcast"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// harness wires a full CTBcast deployment: n=2f+1 group members, 2fm+1
// memory nodes, key registry, and one Group per member with member 0 as
// the broadcaster.
type harness struct {
	eng    *sim.Engine
	net    *simnet.Network
	reg    *xcrypto.Registry
	groups []*Group
	envs   []Env
	got    [][]delivery
	procs  []ids.ID
	mns    []*memnode.Node
	f      int
}

type delivery struct {
	k uint64
	m string
}

type hopts struct {
	f            int
	tail         int
	mode         PathMode
	slowDelay    sim.Duration
	regionBase   memnode.RegionID
	validate     func(member int) func(uint64, []byte) Verdict
	capture      func(member int) func(uint64) []byte
	applySummary func(member int) func(uint64, []byte)
}

func newHarness(t *testing.T, o hopts) *harness {
	t.Helper()
	if o.tail == 0 {
		o.tail = 8
	}
	n := 2*o.f + 1
	h := &harness{eng: sim.NewEngine(1), f: o.f}
	h.net = simnet.New(h.eng, simnet.RDMAOptions())
	for i := 0; i < n; i++ {
		h.procs = append(h.procs, ids.ID(i))
	}
	var memIDs []ids.ID
	for i := 0; i < 3; i++ {
		id := ids.ID(100 + i)
		memIDs = append(memIDs, id)
		rt := router.New(h.net.AddNode(id, fmt.Sprintf("mem%d", i)))
		h.mns = append(h.mns, memnode.New(rt))
	}
	AllocateRegions(h.mns, h.procs, o.tail, o.regionBase)
	h.reg = xcrypto.NewRegistry(7, h.procs)
	h.got = make([][]delivery, n)
	for i := 0; i < n; i++ {
		i := i
		rt := router.New(h.net.AddNode(ids.ID(i), fmt.Sprintf("r%d", i)))
		proc := rt.Node().Proc()
		env := Env{
			RT:     rt,
			Proc:   proc,
			Hub:    msgring.NewHub(rt, proc),
			AckHub: tbcast.NewAckHub(rt),
			Store:  swmr.NewStore(rt, proc, memIDs, 1),
			Signer: h.reg.Signer(ids.ID(i)),
			SumHub: NewSummaryHub(rt),
		}
		h.envs = append(h.envs, env)
		p := Params{
			Self:          ids.ID(i),
			Broadcaster:   0,
			Procs:         h.procs,
			F:             o.f,
			Tail:          o.tail,
			MsgCap:        1024,
			Mode:          o.mode,
			SlowPathDelay: o.slowDelay,
			InstanceBase:  0,
			RegionBase:    o.regionBase,
			Deliver: func(k uint64, m []byte) {
				h.got[i] = append(h.got[i], delivery{k: k, m: string(m)})
			},
		}
		if o.validate != nil {
			p.Validate = o.validate(i)
		}
		if o.capture != nil {
			p.Capture = o.capture(i)
		}
		if o.applySummary != nil {
			p.ApplySummary = o.applySummary(i)
		}
		h.groups = append(h.groups, NewGroup(p, env))
	}
	return h
}

func (h *harness) run(d sim.Duration) { h.eng.RunFor(d) }

func (h *harness) stopAll() {
	for _, g := range h.groups {
		g.Stop()
	}
}

func TestFastPathDeliversToAll(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly})
	defer h.stopAll()
	h.groups[0].Broadcast([]byte("hello"))
	h.run(sim.Millisecond)
	for i, got := range h.got {
		if len(got) != 1 || got[0].k != 1 || got[0].m != "hello" {
			t.Fatalf("member %d delivered %v", i, got)
		}
	}
	if h.groups[1].FastDeliveries != 1 || h.groups[1].SlowDeliveries != 0 {
		t.Fatalf("fast/slow counters wrong: %d/%d", h.groups[1].FastDeliveries, h.groups[1].SlowDeliveries)
	}
}

func TestFastPathFIFOOrder(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly, tail: 16})
	defer h.stopAll()
	const total = 6
	for i := 0; i < total; i++ {
		h.groups[0].Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	h.run(2 * sim.Millisecond)
	for member, got := range h.got {
		if len(got) != total {
			t.Fatalf("member %d delivered %d/%d", member, len(got), total)
		}
		for i, d := range got {
			if d.k != uint64(i+1) || d.m != fmt.Sprintf("m%d", i) {
				t.Fatalf("member %d out of order: %v", member, got)
			}
		}
	}
}

func TestSlowPathDeliversToAll(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: SlowOnly})
	defer h.stopAll()
	h.groups[0].Broadcast([]byte("signed-msg"))
	h.run(5 * sim.Millisecond)
	for i, got := range h.got {
		if len(got) != 1 || got[0].m != "signed-msg" {
			t.Fatalf("member %d delivered %v", i, got)
		}
	}
	if h.groups[1].SlowDeliveries != 1 {
		t.Fatalf("slow counter = %d", h.groups[1].SlowDeliveries)
	}
}

func TestSlowPathSequence(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: SlowOnly, tail: 8})
	defer h.stopAll()
	for i := 0; i < 4; i++ {
		h.groups[0].Broadcast([]byte(fmt.Sprintf("s%d", i)))
	}
	h.run(20 * sim.Millisecond)
	for member, got := range h.got {
		if len(got) != 4 {
			t.Fatalf("member %d delivered %d/4: %v", member, len(got), got)
		}
		for i, d := range got {
			if d.m != fmt.Sprintf("s%d", i) {
				t.Fatalf("member %d out of order: %v", member, got)
			}
		}
	}
}

func TestFallbackPathKicksInWhenFastPathStalls(t *testing.T) {
	// Partition one member's LOCKED channel: unanimity is impossible, so
	// the fast path stalls and the fallback slow path must deliver.
	h := newHarness(t, hopts{f: 1, mode: FastWithFallback, slowDelay: 50 * sim.Microsecond})
	defer h.stopAll()
	// Member 2 cannot talk to anyone (its LOCKED never arrives), but the
	// slow path only needs the broadcaster's signature and registers.
	h.net.Partition(2, 0)
	h.net.Partition(2, 1)
	h.groups[0].Broadcast([]byte("needs-slow"))
	h.run(5 * sim.Millisecond)
	for _, i := range []int{0, 1} {
		if len(h.got[i]) != 1 || h.got[i][0].m != "needs-slow" {
			t.Fatalf("member %d delivered %v", i, h.got[i])
		}
		if h.groups[i].SlowDeliveries != 1 {
			t.Fatalf("member %d did not use slow path", i)
		}
	}
}

func TestFastPathNoSignaturesCharged(t *testing.T) {
	// The fast path must not sign: with crypto costing tens of us, a
	// signature-free delivery completes in a few us of virtual time.
	h := newHarness(t, hopts{f: 1, mode: FastOnly})
	defer h.stopAll()
	h.groups[0].Broadcast([]byte("quick"))
	start := h.eng.Now()
	for h.eng.Now().Sub(start) < sim.Duration(50*sim.Microsecond) && len(h.got[1]) == 0 {
		if !h.eng.Step() {
			break
		}
	}
	if len(h.got[1]) == 0 {
		t.Fatal("fast path took longer than 50us: signatures on the critical path?")
	}
}

// byzHarness gives tests raw access to forge broadcaster traffic.
func rawLockFrame(k uint64, m []byte) []byte {
	w := wire.NewWriter(16 + len(m))
	w.U8(tagLock)
	w.U64(k)
	w.Bytes(m)
	return w.Finish()
}

func TestAgreementUnderEquivocation(t *testing.T) {
	// A Byzantine broadcaster sends LOCK(1, "A") to member 1 and
	// LOCK(1, "B") to member 2 by driving the message rings directly.
	// Agreement: members 1 and 2 must not deliver different messages for
	// identifier 1. (With equivocation the fast path simply cannot reach
	// unanimity, so nothing is delivered — which satisfies agreement.)
	h := newHarness(t, hopts{f: 1, mode: FastOnly})
	defer h.stopAll()
	g0 := h.groups[0]
	// Forge per-receiver senders on the broadcaster channel (instance 0).
	s1 := msgring.NewSender(h.envs[0].RT, h.envs[0].Proc, 1, 0, 2*g0.p.Tail, innerCap(1024))
	s2 := msgring.NewSender(h.envs[0].RT, h.envs[0].Proc, 2, 0, 2*g0.p.Tail, innerCap(1024))
	s1.Send(rawLockFrame(1, []byte("A")))
	s2.Send(rawLockFrame(1, []byte("B")))
	h.run(5 * sim.Millisecond)
	var d1, d2 *delivery
	if len(h.got[1]) > 0 {
		d1 = &h.got[1][0]
	}
	if len(h.got[2]) > 0 {
		d2 = &h.got[2][0]
	}
	if d1 != nil && d2 != nil && d1.m != d2.m {
		t.Fatalf("agreement violated: member1=%q member2=%q", d1.m, d2.m)
	}
}

func TestAgreementSlowPathEquivocation(t *testing.T) {
	// The Byzantine broadcaster signs two different messages for the same
	// identifier and sends each to a different member over the slow path.
	// The SWMR registers must prevent both from being delivered.
	h := newHarness(t, hopts{f: 1, mode: SlowOnly})
	defer h.stopAll()
	signer := h.reg.Signer(0)
	proc := h.envs[0].Proc
	mkSigned := func(m []byte) []byte {
		dg := xcrypto.Digest(proc, m)
		st := xcrypto.Signed(0, 1, dg)
		sig := signer.Sign(proc, st.Bytes())
		w := wire.NewWriter(128 + len(m))
		w.U8(tagSigned)
		w.U64(1)
		w.Bytes(m)
		w.Bytes(sig)
		return w.Finish()
	}
	s1 := msgring.NewSender(h.envs[0].RT, h.envs[0].Proc, 1, 0, 2*h.groups[0].p.Tail, innerCap(1024))
	s2 := msgring.NewSender(h.envs[0].RT, h.envs[0].Proc, 2, 0, 2*h.groups[0].p.Tail, innerCap(1024))
	s1.Send(mkSigned([]byte("A")))
	s2.Send(mkSigned([]byte("B")))
	h.run(20 * sim.Millisecond)
	var msgs []string
	for member := 1; member <= 2; member++ {
		for _, d := range h.got[member] {
			if d.k == 1 {
				msgs = append(msgs, d.m)
			}
		}
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i] != msgs[0] {
			t.Fatalf("slow-path agreement violated: %v", msgs)
		}
	}
}

func TestIntegrityNoForgedDelivery(t *testing.T) {
	// A Byzantine *member* (not the broadcaster) forges a SIGNED frame
	// with a garbage signature on the broadcaster's channel. Nothing may
	// be delivered.
	h := newHarness(t, hopts{f: 1, mode: SlowOnly})
	defer h.stopAll()
	w := wire.NewWriter(64)
	w.U8(tagSigned)
	w.U64(1)
	w.Bytes([]byte("forged"))
	w.Bytes(make([]byte, xcrypto.SigLen)) // zero signature
	// Member 1 (Byzantine) forges traffic that claims to come from the
	// broadcaster — but rings are authenticated per sender, so it can only
	// write to rings where IT is the sender. The closest attack: member 1
	// sends the frame on its own LOCKED-channel ring; receivers must not
	// treat it as broadcaster traffic.
	evil := msgring.NewSender(h.envs[1].RT, h.envs[1].Proc, 2, 2 /* member 1's LOCKED channel */, 2*h.groups[0].p.Tail, innerCap(1024))
	evil.Send(w.Finish())
	h.run(5 * sim.Millisecond)
	for member, got := range h.got {
		if len(got) != 0 {
			t.Fatalf("member %d delivered forged message: %v", member, got)
		}
	}
}

func TestNoDuplication(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: BothEager})
	defer h.stopAll()
	h.groups[0].Broadcast([]byte("once"))
	h.run(20 * sim.Millisecond)
	for member, got := range h.got {
		if len(got) != 1 {
			t.Fatalf("member %d delivered %d times: %v", member, len(got), got)
		}
	}
}

func TestValidateBlocksByzantineBroadcaster(t *testing.T) {
	h := newHarness(t, hopts{
		f: 1, mode: FastOnly,
		validate: func(member int) func(uint64, []byte) Verdict {
			return func(k uint64, m []byte) Verdict {
				if string(m) == "poison" {
					return Reject
				}
				return Accept
			}
		},
	})
	defer h.stopAll()
	h.groups[0].Broadcast([]byte("fine"))
	h.groups[0].Broadcast([]byte("poison"))
	h.groups[0].Broadcast([]byte("after"))
	h.run(5 * sim.Millisecond)
	for member := 0; member < 3; member++ {
		got := h.got[member]
		if len(got) != 1 || got[0].m != "fine" {
			t.Fatalf("member %d: %v (want only 'fine')", member, got)
		}
		if !h.groups[member].Blocked() {
			t.Fatalf("member %d not blocked after Byzantine message", member)
		}
	}
}

// TestWaitVerdictHoldsTheChannel: a message the upper layer cannot judge yet
// (Wait) stays at the head of the channel, later messages queued behind it in
// order; Resume judges it again and delivers on from there. ResetChannel and
// Stop release the wait together with what queued behind it.
func TestWaitVerdictHoldsTheChannel(t *testing.T) {
	hold := true
	judged := make([]int, 3) // per member, how often "hold" was judged
	h := newHarness(t, hopts{
		f: 1, mode: FastOnly,
		validate: func(member int) func(uint64, []byte) Verdict {
			return func(k uint64, m []byte) Verdict {
				if string(m) != "hold" {
					return Accept
				}
				judged[member]++
				if hold {
					return Wait
				}
				return Accept
			}
		},
	})
	defer h.stopAll()
	for _, m := range []string{"a", "hold", "b", "c"} {
		h.groups[0].Broadcast([]byte(m))
	}
	h.run(5 * sim.Millisecond)
	for i, g := range h.groups {
		if len(h.got[i]) != 1 || !g.waiting || g.nextDeliver != 2 || len(g.pendingFIFO) != 3 || judged[i] != 1 {
			t.Fatalf("member %d waiting: delivered %v, waiting %v, next %d, %d queued, judged %d times",
				i, h.got[i], g.waiting, g.nextDeliver, len(g.pendingFIFO), judged[i])
		}
	}

	hold = false
	g := h.groups[1]
	g.Resume()
	g.Resume() // nothing waits: a no-op
	if got := h.got[1]; len(got) != 4 || got[1].m != "hold" || got[2].m != "b" || got[3].m != "c" || g.waiting || judged[1] != 2 {
		t.Fatalf("member 1 resumed: delivered %v, waiting %v, judged %d times", got, g.waiting, judged[1])
	}

	h.groups[2].ResetChannel()
	h.groups[0].Stop()
	for _, i := range []int{0, 2} {
		if g := h.groups[i]; g.waiting || len(g.pendingFIFO) != 0 {
			t.Fatalf("member %d still holds its wait: waiting %v, %d queued", i, g.waiting, len(g.pendingFIFO))
		}
	}
	if h.groups[2].nextDeliver != 1 {
		t.Fatalf("reset channel expects identifier %d, want 1", h.groups[2].nextDeliver)
	}
}

// TestSummaryReleasesAWaitingMessage: a summary certificate at or past a
// message held by a Wait verdict drops it with everything else it covers,
// before the upper layer applies the summary, so a Resume from inside
// ApplySummary finds nothing to judge; delivery goes on after the summary.
// Members 0 and 2 accept everything and certify the summary of identifier 4
// that member 1, waiting at identifier 2, heals its channel with.
func TestSummaryReleasesAWaitingMessage(t *testing.T) {
	judged, applied := 0, 0
	var h *harness
	h = newHarness(t, hopts{
		f: 1, mode: FastOnly,
		validate: func(member int) func(uint64, []byte) Verdict {
			return func(k uint64, m []byte) Verdict {
				if member == 1 && string(m) == "hold" {
					judged++
					return Wait
				}
				return Accept
			}
		},
		applySummary: func(member int) func(uint64, []byte) {
			return func(uint64, []byte) {
				applied++
				h.groups[member].Resume()
			}
		},
	})
	defer h.stopAll()
	for _, m := range []string{"a", "hold", "b", "c", "d"} {
		h.groups[0].Broadcast([]byte(m))
	}
	h.run(5 * sim.Millisecond)
	g := h.groups[1]
	if got := h.got[1]; applied != 1 || judged != 1 || g.waiting || g.nextDeliver != 6 || len(got) != 2 || got[1].m != "d" {
		t.Fatalf("member 1: applied %d summaries, judged the held message %d times, waiting %v, next %d, delivered %v",
			applied, judged, g.waiting, g.nextDeliver, got)
	}
}

func TestSummariesGateTheBroadcaster(t *testing.T) {
	// With tail=4 (halfT=2) the broadcaster must collect summaries to move
	// past k=4. All members are timely, so summaries flow and a long run
	// of broadcasts completes.
	h := newHarness(t, hopts{f: 1, mode: FastOnly, tail: 4})
	defer h.stopAll()
	const total = 20
	for i := 0; i < total; i++ {
		h.groups[0].Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	h.run(50 * sim.Millisecond)
	for member, got := range h.got {
		if len(got) != total {
			t.Fatalf("member %d delivered %d/%d (summary gating stuck?)", member, len(got), total)
		}
	}
	if h.groups[0].lastSummary == 0 {
		t.Fatal("broadcaster never advanced its summary window")
	}
}

func TestSummaryHealsGapAfterPartition(t *testing.T) {
	// Member 2 is partitioned from the broadcaster while the tail wraps
	// several times; after healing, TBcast cannot replay the old messages
	// (out of tail), so member 2 must catch up via a certified summary.
	// The fallback slow path lets members 0 and 1 progress without member
	// 2 (the fast path alone would need unanimity and block the tail).
	applied := make([]int, 3)
	h := newHarness(t, hopts{
		f: 1, mode: FastWithFallback, slowDelay: 50 * sim.Microsecond, tail: 4,
		capture: func(member int) func(uint64) []byte {
			return func(id uint64) []byte { return []byte(fmt.Sprintf("state@%d", id)) }
		},
		applySummary: func(member int) func(uint64, []byte) {
			return func(id uint64, state []byte) { applied[member]++ }
		},
	})
	defer h.stopAll()
	h.net.Partition(0, 2)
	h.net.Partition(1, 2) // fully isolate member 2's inbound LOCKED too
	const total = 12      // 3x the tail
	for i := 0; i < total; i++ {
		h.groups[0].Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	h.run(20 * sim.Millisecond)
	if len(h.got[2]) != 0 {
		t.Fatalf("partitioned member delivered %v", h.got[2])
	}
	h.net.HealAll()
	// Keep the channel alive so summaries and retransmissions flow.
	for i := total; i < total+6; i++ {
		h.groups[0].Broadcast([]byte(fmt.Sprintf("m%d", i)))
		h.run(5 * sim.Millisecond)
	}
	h.run(50 * sim.Millisecond)
	if applied[2] == 0 {
		t.Fatal("member 2 never applied a summary")
	}
	got := h.got[2]
	if len(got) == 0 {
		t.Fatal("member 2 delivered nothing after healing")
	}
	// FIFO resumes after the summary id: deliveries are strictly ordered.
	for i := 1; i < len(got); i++ {
		if got[i].k != got[i-1].k+1 {
			t.Fatalf("member 2 FIFO broken after summary: %v", got)
		}
	}
	last := got[len(got)-1]
	if last.m != fmt.Sprintf("m%d", last.k-1) {
		t.Fatalf("member 2 delivered wrong content after summary: %+v", last)
	}
}

func TestBroadcastFromNonBroadcasterPanics(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly})
	defer h.stopAll()
	defer func() {
		if recover() == nil {
			t.Fatal("non-broadcaster Broadcast did not panic")
		}
	}()
	h.groups[1].Broadcast([]byte("x"))
}

func TestOversizedBroadcastPanics(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly})
	defer h.stopAll()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Broadcast did not panic")
		}
	}()
	h.groups[0].Broadcast(make([]byte, 2048))
}

func TestOddTailPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd tail did not panic")
		}
	}()
	newHarness(t, hopts{f: 1, mode: FastOnly, tail: 7})
}

func TestMemoryAccounting(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly, tail: 16})
	defer h.stopAll()
	g := h.groups[0]
	if g.AllocatedLocalBytes() <= 0 {
		t.Fatal("local memory accounting missing")
	}
	dis := g.AllocatedDisaggregatedBytes()
	if dis != 3*16*swmr.RegionSize(registerValueCap) {
		t.Fatalf("disaggregated accounting = %d", dis)
	}
	// Disaggregated memory grows linearly in t (Table 2's key shape).
	h2 := newHarness(t, hopts{f: 1, mode: FastOnly, tail: 32})
	defer h2.stopAll()
	if h2.groups[0].AllocatedDisaggregatedBytes() != 2*dis {
		t.Fatal("disaggregated memory not linear in tail")
	}
}

func TestDeliveredCounter(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly})
	defer h.stopAll()
	h.groups[0].Broadcast([]byte("a"))
	h.groups[0].Broadcast([]byte("b"))
	h.run(2 * sim.Millisecond)
	if got := h.groups[2].Delivered(); got != 2 {
		t.Fatalf("Delivered = %d, want 2", got)
	}
}
