package msgring

// Buffer-ownership tests for the zero-copy hot path: a ring frame is
// immutable once sent and shared by the sender's mirror, every receiver and
// every retransmission, so a later message in the same slot must never show
// through an earlier one's bytes, and a view one receiver retains must never
// change. Run under -race these also guard the ownership rules (no live
// aliasing across sends).

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/xcrypto"
)

// TestSlotBufferReuseNoBleed overwrites one ring slot with messages of
// shrinking then growing sizes and asserts every delivery is byte-exact:
// a stale long message must never shine through a reused slot.
func TestSlotBufferReuseNoBleed(t *testing.T) {
	const slots = 4
	p := newPair(t, slots, 256)
	var want []string
	for round := 0; round < 6; round++ {
		size := []int{200, 3, 97, 1, 64, 9}[round]
		for s := 0; s < slots; s++ {
			msg := bytes.Repeat([]byte{byte('a' + round)}, size)
			want = append(want, string(msg))
			p.send.Send(msg)
			p.eng.Run() // drain so nothing is overwritten or staged
		}
	}
	if len(p.got) != len(want) {
		t.Fatalf("delivered %d/%d", len(p.got), len(want))
	}
	for i := range want {
		if p.got[i] != want[i] {
			t.Fatalf("message %d corrupted: got %dB %q..., want %dB",
				i, len(p.got[i]), p.got[i][:min(8, len(p.got[i]))], len(want[i]))
		}
	}
}

// TestCallerBufferReusableAfterSend verifies the documented ownership rule:
// the caller may clobber its message buffer as soon as Send returns, and
// the receiver still observes the original bytes (Send encoded them into a
// fresh frame, which the mirror and the network share).
func TestCallerBufferReusableAfterSend(t *testing.T) {
	p := newPair(t, 8, 64)
	buf := []byte("original")
	p.send.Send(buf)
	for i := range buf {
		buf[i] = 'X'
	}
	p.send.Send(buf)
	p.eng.Run()
	if len(p.got) != 2 || p.got[0] != "original" || p.got[1] != "XXXXXXXX" {
		t.Fatalf("deliveries corrupted by caller reuse: %q", p.got)
	}
}

// TestFanOutSharedFrame fans messages out to three receivers through one
// sender and checks every receiver reads intact bytes although the frame is
// encoded once and shared by all of them, in a mirror slot that later
// messages take over, and that each receiver can be retransmitted to out of
// that one mirror.
func TestFanOutSharedFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	srt := router.New(net.AddNode(0, "s"))
	const nRecv = 3
	got := make([][]string, nRecv)
	var to []ids.ID
	for i := 0; i < nRecv; i++ {
		i := i
		rrt := router.New(net.AddNode(ids.ID(1+i), fmt.Sprintf("r%d", i)))
		hub := NewHub(rrt, rrt.Node().Proc())
		NewReceiver(hub, 0, 7, 8, 64, func(_ uint64, msg []byte) {
			got[i] = append(got[i], string(msg))
		})
		to = append(to, ids.ID(1+i))
	}
	s := NewFanOut(srt, srt.Node().Proc(), to, 7, 8, 64)
	var want []string
	for k := 0; k < 10; k++ {
		msg := fmt.Sprintf("bcast-%d-%s", k, bytes.Repeat([]byte{byte('A' + k)}, k))
		want = append(want, msg)
		s.Send([]byte(msg))
	}
	eng.Run()
	for i := 0; i < nRecv; i++ {
		if len(got[i]) != len(want) {
			t.Fatalf("receiver %d got %d/%d messages", i, len(got[i]), len(want))
		}
		for k := range want {
			if got[i][k] != want[k] {
				t.Fatalf("receiver %d message %d corrupted: %q != %q", i, k, got[i][k], want[k])
			}
		}
	}
	// The latest message is still there for every receiver (a duplicate the
	// receiver drops, but it must go out), an overwritten one for none.
	sent := net.MsgsSent
	for i := 0; i < nRecv; i++ {
		if s.Next() != 10 || !s.Retransmit(i, 9) || s.Retransmit(i, 1) {
			t.Fatalf("receiver %d: mirror lost the tail or kept too much (next=%d)", i, s.Next())
		}
	}
	if net.MsgsSent != sent+nRecv {
		t.Fatalf("retransmission posted %d frames, want %d", net.MsgsSent-sent, nRecv)
	}
}

// TestRetainedViewsNeverChange keeps every delivered message as the view the
// receiver got (no copy) and the sender's own view of it, and requires every
// retained view to still read its original bytes after the ring has lapped
// many times. Each round sends one message more than the ring has slots in a
// single instant, so the last laps the first while its WRITE is in flight,
// and retransmits each at once, so every retransmission is staged behind the
// WRITE it follows: a slot taken over by a later message gets a new frame,
// a staged or retransmitted frame is the one already sent, and nothing
// writes into a frame once sent.
func TestRetainedViewsNeverChange(t *testing.T) {
	const slots = 4
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	srt := router.New(net.AddNode(0, "s"))
	rrt := router.New(net.AddNode(1, "r"))
	views := map[uint64][]byte{}
	NewReceiver(NewHub(rrt, rrt.Node().Proc()), 0, 1, slots, 64, func(idx uint64, msg []byte) {
		views[idx] = msg
	})
	s := NewSender(srt, srt.Node().Proc(), 1, 1, slots, 64)
	want := map[uint64]string{}
	own := map[uint64][]byte{}
	for round := 0; round < 6; round++ {
		for i := 0; i <= slots; i++ {
			msg := bytes.Repeat([]byte{byte('a' + round)}, 1+i*10)
			idx := s.Send(msg)
			want[idx], own[idx] = string(msg), s.Msg(idx)
			s.Retransmit(0, idx)
		}
		if len(s.to[0].staged) == 0 {
			t.Fatalf("round %d staged nothing", round)
		}
		eng.Run()
	}
	if len(views) < len(want)*3/4 {
		t.Fatalf("delivered %d/%d", len(views), len(want))
	}
	for idx, w := range want {
		if v, ok := views[idx]; ok && string(v) != w || string(own[idx]) != w {
			t.Fatalf("message %d changed after it was sent: receiver %q, sender %q, want %q", idx, v, own[idx], w)
		}
	}
}

// TestSenderFramesAreCappedEncodeFrames holds the one ring-frame codec and
// the carving: a sender's frame is EncodeFrame's bytes for the same Frame,
// and each frame carved from the sender's block, and each Msg view of one,
// has cap == len, so an append to it reallocates and leaves the next frame
// of the block as it was.
func TestSenderFramesAreCappedEncodeFrames(t *testing.T) {
	const slots = 4
	p := newPair(t, slots, 64)
	var frames [][]byte
	for i := range slots {
		msg := bytes.Repeat([]byte{byte('a' + i)}, 3+i*7)
		idx := p.send.Send(msg)
		frame := p.send.mirror[idx%slots].frame
		want := EncodeFrame(Frame{Inst: 1, Slot: uint32(idx % slots), Inc: idx/slots + 1, Msg: msg})
		if !bytes.Equal(frame, want) {
			t.Fatalf("message %d: sender framed %x, EncodeFrame %x", idx, frame, want)
		}
		if view := p.send.Msg(idx); cap(frame) != len(frame) || cap(view) != len(view) {
			t.Fatalf("message %d: frame len %d cap %d, view len %d cap %d: a carved slice must end at its own last byte",
				idx, len(frame), cap(frame), len(view), cap(view))
		}
		frames = append(frames, frame)
	}
	p.eng.Run()
	for i := range len(frames) - 1 {
		next := bytes.Clone(frames[i+1])
		_ = append(frames[i], 0xEE, 0xEE)
		_ = append(p.send.Msg(uint64(i)), 0xEE, 0xEE)
		if !bytes.Equal(frames[i+1], next) {
			t.Fatalf("an append to frame %d wrote into frame %d", i, i+1)
		}
	}
	if len(p.got) != slots {
		t.Fatalf("delivered %d/%d", len(p.got), slots)
	}
}

// TestFramesNeverRewrittenAndWarmSendAllocatesLittle: the sender carves every
// frame from a block of its own, so over four laps of the ring every frame
// the mirror holds, and every frame that has left it but is still held, reads
// the bytes it was sent with and matches their checksum; and a warm Send
// allocates at most one block per 16 messages, not a frame each.
func TestFramesNeverRewrittenAndWarmSendAllocatesLittle(t *testing.T) {
	const slots = 8
	p := newPair(t, slots, 64)
	type held struct {
		frame, sent []byte
	}
	var all []held
	for i := range 4 * slots {
		idx := p.send.Send([]byte(fmt.Sprintf("msg-%02d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, i%9))))
		frame := p.send.mirror[idx%slots].frame
		all = append(all, held{frame: frame, sent: bytes.Clone(frame)})
		if i%3 == 0 {
			p.eng.Run()
		}
	}
	p.eng.Run()
	for idx, h := range all {
		f, ok := ParseFrame(h.frame[1:])
		if !ok || !bytes.Equal(h.frame, h.sent) || xcrypto.ChecksumNoCharge(f.Msg) != f.Checksum {
			t.Fatalf("frame %d changed after it was sent: %x, sent %x", idx, h.frame, h.sent)
		}
		if in := uint64(idx)+slots >= p.send.Next(); in && !bytes.Equal(p.send.mirror[idx%slots].frame, h.sent) {
			t.Fatalf("the mirror's frame %d changed after it was sent", idx)
		}
	}

	// A run sends 256 small messages, each delivered before the next to a
	// receiver that only counts, so 16 allocations are one per 16.
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	srt := router.New(net.AddNode(0, "s"))
	rrt := router.New(net.AddNode(1, "r"))
	delivered := 0
	NewReceiver(NewHub(rrt, rrt.Node().Proc()), 0, 1, slots, 64, func(uint64, []byte) { delivered++ })
	s := NewSender(srt, srt.Node().Proc(), 1, 1, slots, 64)
	const batch = 256
	msg := []byte("a small ring message")
	sendBatch := func() {
		for range batch {
			s.Send(msg)
			eng.Run()
		}
	}
	sendBatch() // warm: the event pool
	avg := testing.AllocsPerRun(20, sendBatch)
	t.Logf("a warm sender allocates %.0f per %d messages", avg, batch)
	if avg > batch/16 {
		t.Fatalf("a warm sender allocates %.0f per %d messages, budget %d", avg, batch, batch/16)
	}
	if want := (1 + 1 + 20) * batch; delivered != want { // AllocsPerRun runs once more to warm up
		t.Fatalf("delivered %d of %d", delivered, want)
	}
}

// TestStagingKeepsOneArray sends bursts of 256 messages into a warm 8-slot
// ring without waiting for a WRITE to complete, so nearly every message is
// staged behind its slot's WRITE and the staging queue runs full, evicting
// its oldest entry at every post. The queue shifts in place: a burst
// allocates the blocks its frames are carved from and less than one
// allocation more. (It read about 38 more while an eviction resliced the
// queue's front away and the next append grew a new array.)
func TestStagingKeepsOneArray(t *testing.T) {
	const slots, burst = 8, 256
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	srt := router.New(net.AddNode(0, "s"))
	rrt := router.New(net.AddNode(1, "r"))
	delivered := 0
	NewReceiver(NewHub(rrt, rrt.Node().Proc()), 0, 1, slots, 64, func(uint64, []byte) { delivered++ })
	s := NewSender(srt, srt.Node().Proc(), 1, 1, slots, 64)
	msg := []byte("a small ring message")
	staged := 0
	sendBurst := func() {
		for range burst {
			s.Send(msg)
			staged = max(staged, len(s.to[0].staged))
		}
		eng.Run()
	}
	sendBurst() // warm: the event pool, the staging queue's array
	avg := testing.AllocsPerRun(20, sendBurst)
	blocks := float64(burst*frameLen(len(msg))) / 4096
	t.Logf("a burst of %d allocates %.2f, %.2f of them frame blocks", burst, avg, blocks)
	if staged != slots {
		t.Fatalf("the staging queue held at most %d, want it full at %d", staged, slots)
	}
	if avg >= blocks+1 {
		t.Fatalf("a burst of %d allocates %.2f, %.2f more than its frame blocks; want less than 1", burst, avg, avg-blocks)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
