package swmr

// The frame-reuse rules on the simulated fabric: a request frame goes back to
// the free list only once every transmission of it was answered, a finished
// operation's frame waits in a draining set of constant size, and once the
// network is stable every frame is reused again.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/xcrypto"
)

// frameWatch checksums every frame the rig's rule lets through and every
// frame delivered, and counts the register frames sent again with new bytes.
type frameWatch struct {
	links     map[[2]ids.ID][]sentFrame // per link, sent and not delivered yet, in order
	lastSum   map[*byte]uint64
	delivered int
	recycled  int
	late      []string
}

type sentFrame struct {
	buf []byte
	sum uint64
}

// watch installs rule as the rig's rule behind a recording one and wraps
// every node's handler. A frame is checked at its delivery against the oldest
// frame sent on its link with the same slice: the fabric is FIFO with gaps.
func (rg *rig) watch(rule simnet.Rule) *frameWatch {
	w := &frameWatch{links: map[[2]ids.ID][]sentFrame{}, lastSum: map[*byte]uint64{}}
	rg.net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		sum := xcrypto.ChecksumNoCharge(frame)
		if last, ok := w.lastSum[&frame[0]]; ok && last != sum {
			w.recycled++
		}
		w.lastSum[&frame[0]] = sum
		link := [2]ids.ID{from, to}
		w.links[link] = append(w.links[link], sentFrame{frame, sum})
		if rule == nil {
			return simnet.Deliver, 0
		}
		return rule(from, to, frame)
	})
	for _, id := range append([]ids.ID{0, 1}, rg.memIDs...) {
		nd := rg.net.Node(id)
		h := nd.Handler()
		nd.SetHandler(func(from ids.ID, frame []byte) {
			w.deliver(from, id, frame)
			h(from, frame)
		})
	}
	return w
}

func (w *frameWatch) deliver(from, to ids.ID, frame []byte) {
	link := [2]ids.ID{from, to}
	for i, s := range w.links[link] {
		if len(s.buf) == len(frame) && &s.buf[0] == &frame[0] {
			w.links[link] = w.links[link][i+1:]
			w.delivered++
			if xcrypto.ChecksumNoCharge(frame) != s.sum {
				w.late = append(w.late, fmt.Sprintf("%v -> %v: %d-byte frame rewritten before its delivery", from, to, len(frame)))
			}
			return
		}
	}
	w.late = append(w.late, fmt.Sprintf("%v -> %v: %d-byte frame delivered without a send", from, to, len(frame)))
}

// value is what the writer stores at timestamp ts.
func value(ts uint64) []byte { return []byte(fmt.Sprintf("value-%04d", ts)) }

// readLoop has the reader read the register back to back until stop, and
// requires each read to return a write that completed before it started or
// one in flight while it ran, with the value written at that timestamp.
type readLoop struct {
	t                *testing.T
	reg              *Register
	completed, begun *uint64 // the writer's progress
	reads            int
}

func (l *readLoop) next() {
	floor := *l.completed
	l.reg.Read(func(res ReadResult, err error) {
		switch {
		case err != nil:
			l.t.Errorf("read %d: %v", l.reads, err)
			return
		case res.TS < floor || res.TS > *l.begun:
			l.t.Errorf("read %d returned ts %d, last write completed before it %d, last begun %d", l.reads, res.TS, floor, *l.begun)
		case res.TS > 0 && !bytes.Equal(res.Value, value(res.TS)):
			l.t.Errorf("read %d returned %q at ts %d", l.reads, res.Value, res.TS)
		}
		l.reads++
		if *l.completed < *l.begun || l.reads < 400 {
			l.next()
		}
	})
}

// TestRequestFramesReusedOnlyOnceAnswered: across pre-GST drops and delays
// and a memory-node link held for 3 ms, every read returns the last
// completed write (or one in flight), and no frame is rewritten while a
// transmission of it is undelivered; frames are reused all the same.
func TestRequestFramesReusedOnlyOnceAnswered(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	gst := sim.Time(0).Add(30 * sim.Millisecond)
	rg.net.SetGST(gst, 300*sim.Microsecond, 0.2)
	holdFrom, holdTo := sim.Time(0).Add(2*sim.Millisecond), sim.Time(0).Add(5*sim.Millisecond)
	w := rg.watch(func(from, to ids.ID, _ []byte) (simnet.Fate, sim.Duration) {
		if now := rg.eng.Now(); from == 0 && to == rg.memIDs[2] && now >= holdFrom && now < holdTo {
			return simnet.Hold, 0
		}
		return simnet.Deliver, 0
	})
	rg.eng.At(holdTo, func() { rg.net.Release(0, rg.memIDs[2]) })

	wreg := NewRegister(rg.writer, 1, 32)
	var begun, completed uint64
	var write func()
	write = func() {
		begun++
		ts := begun
		wreg.Write(ts, value(ts), func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", ts, err)
			}
			completed = ts
			if ts < 200 {
				write()
			}
		})
	}
	write()
	loop := &readLoop{t: t, reg: NewRegister(rg.reader, 1, 32), completed: &completed, begun: &begun}
	loop.next()
	rg.eng.Run()

	t.Logf("%d writes, %d reads, %d frames delivered, %d register frames sent again with new bytes; %d dropped",
		completed, loop.reads, w.delivered, w.recycled, rg.net.Dropped)
	for i, msg := range w.late {
		if i < 5 {
			t.Error(msg)
		}
	}
	switch {
	case completed != 200 || loop.reads < 400:
		t.Fatalf("%d writes and %d reads completed", completed, loop.reads)
	case rg.eng.Now() < gst || rg.net.Dropped == 0:
		t.Fatal("the run ended before GST or dropped nothing")
	case w.recycled == 0:
		t.Fatal("no frame was reused")
	}
}

// TestDrainingSetBounded: with one memory node crashed every operation
// still completes at f_m+1 answers, and its frame, which the crashed node
// never answers, waits in the draining set. The set holds the newest
// drainSlots frames, forgetting the oldest, and no frame with an unanswered
// transmission, draining or forgotten, goes back to the free list.
func TestDrainingSetBounded(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	rg.memnodes[2].Crash()
	var sent [][]byte // every request frame, each also sent to the crashed node
	rg.net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		if to == rg.memIDs[0] {
			sent = append(sent, frame)
		}
		return simnet.Deliver, 0
	})
	wreg, rreg := NewRegister(rg.writer, 1, 32), NewRegister(rg.reader, 1, 32)
	const ops = 3 * drainSlots
	for ts := uint64(1); ts <= ops; ts++ {
		var werr, rerr error
		var got ReadResult
		wreg.Write(ts, value(ts), func(err error) { werr = err })
		rg.eng.Run()
		rreg.Read(func(res ReadResult, err error) {
			got, rerr = kept(res), err
		})
		rg.eng.Run()
		if werr != nil || rerr != nil || got.TS != ts || !bytes.Equal(got.Value, value(ts)) {
			t.Fatalf("op %d: write %v, read %+v %v", ts, werr, got, rerr)
		}
	}
	if len(sent) != 2*ops {
		t.Fatalf("%d request frames sent, want %d", len(sent), 2*ops)
	}
	unanswered := sent
	for _, s := range []*Store{rg.writer, rg.reader} {
		oldest := s.nextSeq
		for _, d := range s.draining {
			if d.frame == nil || d.unanswered != 1 {
				t.Fatalf("draining entry %+v, want a frame with 1 unanswered transmission", d)
			}
			oldest = min(oldest, d.seq)
			unanswered = append(unanswered, d.frame)
		}
		if want := s.nextSeq - drainSlots + 1; oldest != want {
			t.Errorf("oldest draining op %d, want %d: the set keeps the newest %d", oldest, want, drainSlots)
		}
	}
	for _, n := range []int{memnode.WriteLen(0, SlotSize(32)), memnode.ReadLen} {
		listed := freeFrames(n)
		for _, f := range listed {
			for _, u := range unanswered {
				if sameArray(f, u) {
					t.Errorf("a %d-byte request frame with a transmission unanswered is on the free list", n)
				}
			}
		}
		for _, f := range listed {
			router.Release(f)
		}
	}
}

// freeFrames takes every frame of length n off the process's free list. A
// released frame starts with its channel tag, never 0; a fresh one is zeroed.
func freeFrames(n int) [][]byte {
	var fs [][]byte
	for f := router.Frame(n); f[0] != 0; f = router.Frame(n) {
		fs = append(fs, f)
	}
	return fs
}

// sameArray reports whether a and b share their backing array.
func sameArray(a, b []byte) bool {
	return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// TestAllocsRecoverAfterGST: once the network is stable, an operation
// allocates what it does on a network that never lost a frame, although
// the lossy prefix left frames in the draining set and forgot others.
func TestAllocsRecoverAfterGST(t *testing.T) {
	steady := func(rg *rig) float64 {
		rg.allocate(1, 0, 32)
		wreg, rreg := NewRegister(rg.writer, 1, 32), NewRegister(rg.reader, 1, 32)
		ts, done := uint64(0), 0
		wrote, read := func(error) { done++ }, func(ReadResult, error) { done++ }
		op := func() {
			ts++
			wreg.Write(ts, value(ts%8), wrote)
			rreg.Read(read)
			rg.eng.Run()
		}
		for rg.eng.Now() < rg.net.Options().GST || ts < 50 {
			op()
		}
		allocs := testing.AllocsPerRun(100, op)
		if done != 2*int(ts) {
			t.Fatalf("%d of %d operations completed", done, 2*ts)
		}
		return allocs
	}
	clean := steady(newRig(t, 1))
	lossy := newRig(t, 1)
	lossy.net.SetGST(sim.Time(0).Add(20*sim.Millisecond), 300*sim.Microsecond, 0.3)
	after := steady(lossy)
	t.Logf("%.1f allocs per write and read on a clean network, %.1f after GST (%d frames dropped before it)", clean, after, lossy.net.Dropped)
	if lossy.net.Dropped == 0 {
		t.Fatal("the lossy prefix dropped nothing")
	}
	if after > clean {
		t.Errorf("%.1f allocs per operation after GST, %.1f on a clean network", after, clean)
	}
}

// TestReusedWriteFrameEqualsFresh: a WRITE encoded into a frame from the
// free list, one that carried a longer value, is byte for byte the frame a
// fresh encoding makes, the sub-register's zero padding under its checksum
// included.
func TestReusedWriteFrameEqualsFresh(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	wreg := NewRegister(rg.writer, 1, 32)
	dirty, slot := memnode.EncodeWrite(nil, 1, 0, SlotSize(32))
	encodeSlot(slot, 2, bytes.Repeat([]byte{0xA5}, 32))
	memnode.SetSeq(dirty, 99)
	router.Release(dirty)
	var werr error
	wreg.Write(3, []byte("short"), func(err error) { werr = err })
	reused := wreg.queue[0].frame
	if !sameArray(reused, dirty) {
		t.Fatal("the WRITE did not take the frame last released")
	}
	fresh, slot := memnode.EncodeWrite(nil, 1, 0, SlotSize(32))
	encodeSlot(slot, 3, []byte("short"))
	memnode.SetSeq(fresh, rg.writer.nextSeq)
	if !bytes.Equal(reused, fresh) {
		t.Fatalf("reused frame\n%x\nfresh frame\n%x", reused, fresh)
	}
	rg.eng.Run()
	if werr != nil {
		t.Fatalf("write: %v", werr)
	}
}
