package msgring

import (
	"fmt"
	"testing"

	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
)

type pair struct {
	eng  *sim.Engine
	send *Sender
	recv *Receiver
	got  []string
	idxs []uint64
}

func newPair(t *testing.T, slots, cap int) *pair {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	srt := router.New(net.AddNode(0, "s"))
	rrt := router.New(net.AddNode(1, "r"))
	hub := NewHub(rrt, rrt.Node().Proc())
	p := &pair{eng: eng}
	p.recv = NewReceiver(hub, 0, 1, slots, cap, func(idx uint64, msg []byte) {
		p.got = append(p.got, string(msg))
		p.idxs = append(p.idxs, idx)
	})
	p.send = NewSender(srt, srt.Node().Proc(), 1, 1, slots, cap)
	return p
}

func TestFIFODelivery(t *testing.T) {
	p := newPair(t, 8, 64)
	for i := 0; i < 5; i++ {
		p.send.Send([]byte(fmt.Sprintf("m%d", i)))
	}
	p.eng.Run()
	if len(p.got) != 5 {
		t.Fatalf("delivered %d, want 5: %v", len(p.got), p.got)
	}
	for i, m := range p.got {
		if m != fmt.Sprintf("m%d", i) {
			t.Fatalf("out of order: %v", p.got)
		}
		if p.idxs[i] != uint64(i) {
			t.Fatalf("indices wrong: %v", p.idxs)
		}
	}
}

func TestOverwriteSkipsOldMessages(t *testing.T) {
	// Send 3*slots messages in one burst: the receiver must deliver a
	// suffix in order and never a duplicate, skipping overwritten ones.
	p := newPair(t, 4, 64)
	const total = 12
	for i := 0; i < total; i++ {
		p.send.Send([]byte(fmt.Sprintf("m%d", i)))
	}
	p.eng.Run()
	if len(p.got) == 0 {
		t.Fatal("nothing delivered")
	}
	for i := 1; i < len(p.idxs); i++ {
		if p.idxs[i] <= p.idxs[i-1] {
			t.Fatalf("non-monotonic delivery: %v", p.idxs)
		}
	}
	// The final message must always arrive (it is never overwritten).
	if p.idxs[len(p.idxs)-1] != total-1 {
		t.Fatalf("last message lost: %v", p.idxs)
	}
}

func TestNoDuplicates(t *testing.T) {
	p := newPair(t, 4, 64)
	for i := 0; i < 20; i++ {
		p.send.Send([]byte("x"))
	}
	// Retransmit everything still in the mirror.
	for i := uint64(0); i < 20; i++ {
		p.send.Retransmit(0, i)
	}
	p.eng.Run()
	seen := map[uint64]bool{}
	for _, idx := range p.idxs {
		if seen[idx] {
			t.Fatalf("duplicate delivery of %d", idx)
		}
		seen[idx] = true
	}
}

func TestRetransmitOnlyWithinMirror(t *testing.T) {
	p := newPair(t, 4, 64)
	for i := 0; i < 8; i++ {
		p.send.Send([]byte("x"))
	}
	if p.send.Retransmit(0, 0) {
		t.Fatal("retransmitted message outside the mirror")
	}
	if !p.send.Retransmit(0, 7) {
		t.Fatal("failed to retransmit mirrored message")
	}
	if p.send.Retransmit(0, 100) {
		t.Fatal("retransmitted a never-sent index")
	}
}

func TestStagingPreservesLatestPerSlot(t *testing.T) {
	// Two same-slot messages sent back-to-back: the second is staged while
	// the first's WRITE is in flight, and the receiver must end up
	// delivering the latest one for that slot.
	p := newPair(t, 2, 64)
	p.send.Send([]byte("a0"))
	p.send.Send([]byte("b0"))
	p.send.Send([]byte("a1")) // same slot as a0, WRITE for a0 in flight
	p.eng.Run()
	last := p.got[len(p.got)-1]
	foundA1 := false
	for _, m := range p.got {
		if m == "a1" {
			foundA1 = true
		}
	}
	if !foundA1 {
		t.Fatalf("latest same-slot message never delivered: %v (last=%q)", p.got, last)
	}
}

func TestOversizedMessagePanics(t *testing.T) {
	p := newPair(t, 4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized message did not panic")
		}
	}()
	p.send.Send(make([]byte, 9))
}

func TestCorruptFrameDropped(t *testing.T) {
	// A Byzantine sender forging a frame with a wrong checksum: the
	// receiver must drop it and count the corruption.
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	srt := router.New(net.AddNode(0, "byz"))
	rrt := router.New(net.AddNode(1, "r"))
	hub := NewHub(rrt, rrt.Node().Proc())
	delivered := 0
	recv := NewReceiver(hub, 0, 1, 4, 64, func(uint64, []byte) { delivered++ })
	// Hand-craft a frame with a bogus checksum.
	frame := forgeFrame(1, 0, 1, 0xDEAD, []byte("evil"))
	srt.Send(1, router.ChanRing, frame)
	eng.Run()
	if delivered != 0 {
		t.Fatal("corrupt frame delivered")
	}
	if recv.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", recv.Corrupt)
	}
}

func TestMalformedFramesIgnored(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	srt := router.New(net.AddNode(0, "byz"))
	rrt := router.New(net.AddNode(1, "r"))
	hub := NewHub(rrt, rrt.Node().Proc())
	delivered := 0
	NewReceiver(hub, 0, 1, 4, 64, func(uint64, []byte) { delivered++ })
	srt.Send(1, router.ChanRing, []byte{1, 2, 3})                   // truncated
	srt.Send(1, router.ChanRing, forgeFrame(1, 99, 1, 0, []byte{})) // slot out of range
	srt.Send(1, router.ChanRing, forgeFrame(1, 0, 0, 0, []byte{}))  // zero incarnation
	srt.Send(1, router.ChanRing, forgeFrame(77, 0, 1, 0, []byte{})) // unknown instance
	eng.Run()
	if delivered != 0 {
		t.Fatal("malformed frame delivered")
	}
}

func TestTwoInstancesIndependent(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	srt := router.New(net.AddNode(0, "s"))
	rrt := router.New(net.AddNode(1, "r"))
	hub := NewHub(rrt, rrt.Node().Proc())
	var got1, got2 []string
	NewReceiver(hub, 0, 1, 4, 64, func(_ uint64, m []byte) { got1 = append(got1, string(m)) })
	NewReceiver(hub, 0, 2, 4, 64, func(_ uint64, m []byte) { got2 = append(got2, string(m)) })
	s1 := NewSender(srt, srt.Node().Proc(), 1, 1, 4, 64)
	s2 := NewSender(srt, srt.Node().Proc(), 1, 2, 4, 64)
	s1.Send([]byte("one"))
	s2.Send([]byte("two"))
	eng.Run()
	if len(got1) != 1 || got1[0] != "one" || len(got2) != 1 || got2[0] != "two" {
		t.Fatalf("instance crosstalk: %v %v", got1, got2)
	}
}

func TestDuplicateReceiverPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	rrt := router.New(net.AddNode(1, "r"))
	hub := NewHub(rrt, rrt.Node().Proc())
	NewReceiver(hub, 0, 1, 4, 64, func(uint64, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate receiver did not panic")
		}
	}()
	NewReceiver(hub, 0, 1, 4, 64, func(uint64, []byte) {})
}

func TestAllocatedBytesAccounted(t *testing.T) {
	p := newPair(t, 8, 128)
	if p.send.AllocatedBytes <= 0 || p.recv.AllocatedBytes <= 0 {
		t.Fatal("memory accounting missing")
	}
	if p.send.AllocatedBytes < p.recv.AllocatedBytes {
		t.Fatal("sender mirror+staging should be at least the receiver buffer")
	}
}

// forgeFrame builds a raw ring frame (helper for Byzantine tests).
func forgeFrame(inst uint32, slot uint32, inc uint64, chk uint64, data []byte) []byte {
	w := newFrameWriter()
	w.U32(inst)
	w.U32(slot)
	w.U64(inc)
	w.U64(chk)
	w.Bytes(data)
	return w.Finish()
}
