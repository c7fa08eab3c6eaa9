package simnet

import (
	"encoding/binary"
	"testing"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/sim"
)

// arrival is one delivery seen by a test handler.
type arrival struct {
	at   sim.Time
	from ids.ID
	idx  uint32
}

// recordingNet builds n nodes whose handlers append every delivery, in
// arrival order, to the returned slice.
func recordingNet(seed int64, opts Options, n int) (*sim.Engine, *Network, []*Node, *[]arrival) {
	e := sim.NewEngine(seed)
	net := New(e, opts)
	got := &[]arrival{}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = net.AddNode(ids.ID(i), "n")
		nodes[i].SetHandler(func(from ids.ID, p []byte) {
			*got = append(*got, arrival{e.Now(), from, binary.LittleEndian.Uint32(p)})
		})
	}
	return e, net, nodes, got
}

func frame(idx uint32, size int) []byte {
	b := make([]byte, 4+size)
	binary.LittleEndian.PutUint32(b, idx)
	return b
}

// TestDeliverAllRuleChangesNothing: a rule that delivers everything draws no
// random number, so 10^4 seeded sends, some of them before GST, arrive at
// exactly the times they do with no rule.
func TestDeliverAllRuleChangesNothing(t *testing.T) {
	opts := RDMAOptions()
	opts.GST = sim.Time(2 * sim.Millisecond)
	opts.AsyncExtraMax = 20 * sim.Microsecond
	opts.AsyncDropProb = 0.1
	run := func(rule Rule) []arrival {
		e, net, nodes, got := recordingNet(3, opts, 3)
		net.SetRule(rule)
		for i := 0; i < 10_000; i++ {
			i := uint32(i)
			e.At(sim.Time(i*400), func() { nodes[i%3].Send(ids.ID((i+1)%3), frame(i, int(i%300))) })
		}
		e.Run()
		return *got
	}
	bare := run(nil)
	ruled := run(func(ids.ID, ids.ID, []byte) (Fate, sim.Duration) { return Deliver, 0 })
	if len(bare) < 9000 || len(bare) != len(ruled) {
		t.Fatalf("%d deliveries without a rule, %d with one", len(bare), len(ruled))
	}
	for i := range bare {
		if bare[i] != ruled[i] {
			t.Fatalf("delivery %d: %+v without a rule, %+v with one", i, bare[i], ruled[i])
		}
	}
}

// TestDelayedFrameNeverOvertaken: a frame the rule delays holds back every
// later frame on its link, and only on its link.
func TestDelayedFrameNeverOvertaken(t *testing.T) {
	e, net, nodes, got := recordingNet(1, RDMAOptions(), 3)
	net.SetRule(func(from, _ ids.ID, p []byte) (Fate, sim.Duration) {
		if from == 0 && binary.LittleEndian.Uint32(p) == 0 {
			return Deliver, 100 * sim.Microsecond
		}
		return Deliver, 0
	})
	for i := uint32(0); i < 5; i++ {
		nodes[0].Send(2, frame(i, 8))
	}
	nodes[1].Send(2, frame(9, 8))
	e.Run()
	if (*got)[0].from != 1 {
		t.Fatalf("the undelayed link waited behind the delayed one: %+v", *got)
	}
	for k, a := range (*got)[1:] {
		if a.idx != uint32(k) || a.at < sim.Time(100*sim.Microsecond) {
			t.Fatalf("delivery %d on the delayed link: %+v", k, a)
		}
	}
}

// TestHoldThenRelease: a held frame stalls its link, later frames the rule
// delivers queue behind it and one it drops is lost, and Release delivers
// the queue in send order, departing at release.
func TestHoldThenRelease(t *testing.T) {
	e, net, nodes, got := recordingNet(1, RDMAOptions(), 3)
	net.SetRule(func(from, _ ids.ID, p []byte) (Fate, sim.Duration) {
		switch idx := binary.LittleEndian.Uint32(p); {
		case from == 0 && idx == 0:
			return Hold, 0
		case idx == 2:
			return Drop, 0
		}
		return Deliver, 0
	})
	for i := uint32(0); i < 4; i++ {
		nodes[0].Send(1, frame(i, 8))
	}
	nodes[2].Send(1, frame(9, 8))
	e.Run()
	if len(*got) != 1 || (*got)[0].from != 2 {
		t.Fatalf("before release: %+v", *got)
	}
	release := e.Now().Add(50 * sim.Microsecond)
	e.At(release, func() { net.Release(0, 1) })
	e.Run()
	if len(*got) != 4 {
		t.Fatalf("after release: %+v", *got)
	}
	for k, a := range (*got)[1:] {
		if want := []uint32{0, 1, 3}[k]; a.from != 0 || a.idx != want || a.at < release.Add(latmodel.WireBase) {
			t.Fatalf("released delivery %d: %+v, want frame %d", k, a, want)
		}
	}
	if net.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", net.Dropped)
	}
}

// TestHeldFramesOfCrashedSenderDropped: frames held from a sender that
// crashed before the release are lost and counted, even once its identity
// is bound to a new process.
func TestHeldFramesOfCrashedSenderDropped(t *testing.T) {
	e, net, nodes, got := recordingNet(1, RDMAOptions(), 2)
	net.SetRule(func(ids.ID, ids.ID, []byte) (Fate, sim.Duration) { return Hold, 0 })
	nodes[0].Send(1, frame(0, 8))
	nodes[0].Send(1, frame(1, 8))
	nodes[0].Proc().Crash()
	net.RemoveNode(0)
	net.AddNode(0, "reborn")
	net.SetRule(nil)
	net.Release(0, 1)
	e.Run()
	if len(*got) != 0 || net.Dropped != 2 {
		t.Fatalf("%d delivered, Dropped = %d; want 0 and 2", len(*got), net.Dropped)
	}
}

// TestHealAllKeepsFIFOHorizon: healing every partition forgets no link's
// FIFO horizon, so a frame sent after HealAll still arrives behind an
// earlier, delayed one.
func TestHealAllKeepsFIFOHorizon(t *testing.T) {
	e, net, nodes, got := recordingNet(1, RDMAOptions(), 3)
	net.SetRule(func(ids.ID, ids.ID, []byte) (Fate, sim.Duration) { return Deliver, 200 * sim.Microsecond })
	nodes[0].Send(1, frame(0, 8))
	net.SetRule(nil)
	net.Partition(1, 2)
	net.HealAll()
	nodes[0].Send(1, frame(1, 8))
	e.Run()
	if len(*got) != 2 || (*got)[0].idx != 0 || (*got)[1].at < (*got)[0].at {
		t.Fatalf("deliveries: %+v", *got)
	}
}

// TestOutboundChargesPerFrame: each frame an outbound rewrite returns is
// sent, charged and counted as its own send, none is charged for a frame
// it swallows, and the rewrite survives a restart under the same identity.
func TestOutboundChargesPerFrame(t *testing.T) {
	e, net, nodes, got := recordingNet(1, RDMAOptions(), 2)
	net.SetOutbound(0, func(_ ids.ID, p []byte) [][]byte {
		out := make([][]byte, binary.LittleEndian.Uint32(p))
		for i := range out {
			out[i] = p
		}
		return out
	})
	if !net.Byzantine(0) || net.Byzantine(1) {
		t.Fatal("Byzantine does not report the rewrite")
	}
	for _, k := range []uint32{0, 1, 3} {
		sent, busy, seen := net.MsgsSent, nodes[0].Proc().BusyUntil(), len(*got)
		nodes[0].Send(1, frame(k, 8))
		if n := net.MsgsSent - sent; n != uint64(k) {
			t.Fatalf("rewrite to %d frames counted %d sends", k, n)
		}
		want := busy
		if k > 0 {
			want = max(busy, e.Now()).Add(sim.Duration(k) * latmodel.DispatchCost)
		}
		if b := nodes[0].Proc().BusyUntil(); b != want {
			t.Fatalf("rewrite to %d frames: busy until %v, want %v", k, b, want)
		}
		e.Run()
		if n := len(*got) - seen; n != int(k) {
			t.Fatalf("rewrite to %d frames delivered %d", k, n)
		}
	}
	nodes[0].Proc().Crash()
	net.RemoveNode(0)
	reborn := net.AddNode(0, "reborn")
	reborn.Send(1, frame(3, 8))
	if net.MsgsSent != 7 {
		t.Fatalf("a restarted identity lost its rewrite: %d sends in all, want 7", net.MsgsSent)
	}
}
