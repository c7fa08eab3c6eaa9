package consensus

// The release rules of reply frames at the client. A replica encodes every
// reply into a frame from the router's free list (replyFrame), and the client
// hands back every one but the frame whose result it gives its caller: a late,
// duplicate, stale or refused reply on arrival, a counted reply once a newer
// one of its class replaces it, the classes that lost at the call's end, and
// every counted reply when the call's classes reset (fallback, strong re-pin,
// cancel). It releases only frames a replica of its own groups sent.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
)

// released reports whether frame went back to the router's free list. Frame
// hands out the frame of a length released last first, so each test gives
// every frame it asks about a length of its own; asking takes the frame off
// the list, so each frame is asked about once.
func released(frame []byte) bool {
	f := router.Frame(len(frame))
	return &f[0] == &frame[0]
}

// result is a reply result n bytes long, so that its frame's length tells it
// from every other frame of a test.
func result(n int) []byte { return []byte(strings.Repeat("r", n)) }

// TestReplyFramesReleasedOnArrival: a reply the call does not count goes back
// at once — a duplicate from a replica already counted, an ordered call's
// third reply after the quorum, and a fast read's refusal and stale reply.
func TestReplyFramesReleasedOnArrival(t *testing.T) {
	c, _ := sinkRig(t, 1)
	fired := 0
	num := c.Invoke([]byte("w"), func([]byte, sim.Duration) { fired++ })
	first := wholeReply(tagResponse, num, 1, 0, result(1))
	dup := wholeReply(tagResponse, num, 1, 0, result(2))
	second := wholeReply(tagResponse, num, 1, 0, result(1))
	third := wholeReply(tagResponse, num, 1, 0, result(3))
	c.onRPC(0, first)
	c.onRPC(0, dup)
	c.onRPC(1, second)
	c.onRPC(2, third)
	if fired != 1 {
		t.Fatalf("the ordered call fired %d times", fired)
	}
	if !released(dup) || !released(third) {
		t.Fatal("a duplicate or a reply after the quorum was kept")
	}

	c.noteVersion(0, 5)
	read := c.Call(0, []byte("r"), Mode{Read: true}, func([]byte, sim.Duration) { fired++ })
	in, _ := asked(c.calls[read], 3)
	refusal := wholeReply(tagReadResponse, read, 9, 0, result(4))
	stale := wholeReply(tagReadResponse, read, 4, readFlagServed, result(5))
	c.onRPC(in[0], refusal)
	c.onRPC(in[1], stale)
	if !released(refusal) || !released(stale) {
		t.Fatal("a refused or a stale read reply was kept")
	}
}

// TestReplyFramesReleasedWithTheirClass: a counted reply goes back when a
// newer reply of its class replaces it, and every class but the accepted
// one at the call's end.
func TestReplyFramesReleasedWithTheirClass(t *testing.T) {
	c, _ := sinkRig(t, 1)
	var got []byte
	num := c.Invoke([]byte("w"), func(res []byte, _ sim.Duration) { got = res })
	lie := wholeReply(tagResponse, num, 1, 0, result(6))
	replaced := wholeReply(tagResponse, num, 1, 0, result(7))
	accepted := wholeReply(tagResponse, num, 1, 0, result(7))
	c.onRPC(0, lie)
	c.onRPC(1, replaced)
	c.onRPC(2, accepted)
	if !bytes.Equal(got, result(7)) {
		t.Fatalf("the call returned %q", got)
	}
	if !released(lie) {
		t.Fatal("the losing class's reply was kept")
	}
	if !released(replaced) {
		t.Fatal("the class member a newer reply replaced was kept")
	}
	if released(accepted) {
		t.Fatal("the reply handed to the caller was released")
	}
}

// TestReplyFramesReleasedOnReset: every reply an escalated read counted goes
// back when it falls back to the ordered path, and every reply a cancelled
// call counted goes back when it is cancelled.
func TestReplyFramesReleasedOnReset(t *testing.T) {
	c, _ := sinkRig(t, 1)
	read := c.Call(0, []byte("r"), Mode{Read: true}, func([]byte, sim.Duration) {})
	in, out := asked(c.calls[read], 3)
	votes := [][]byte{
		wholeReply(tagReadResponse, read, 1, readFlagServed, result(8)),
		wholeReply(tagReadResponse, read, 1, readFlagServed, result(9)),
		wholeReply(tagReadResponse, read, 1, readFlagServed, result(10)),
	}
	c.onRPC(in[0], votes[0])
	c.onRPC(in[1], votes[1]) // no quorum can form: widen
	c.onRPC(out[0], votes[2])
	if c.calls[read].ordNum == 0 {
		t.Fatal("three classes of one vote each did not fall back")
	}
	for i, v := range votes {
		if !released(v) {
			t.Fatalf("vote %d of the fallen-back read was kept", i)
		}
	}

	num := c.Invoke([]byte("w"), func([]byte, sim.Duration) { t.Fatal("a cancelled call fired") })
	counted := wholeReply(tagResponse, num, 1, 0, result(11))
	c.onRPC(0, counted)
	if !c.Cancel(num) {
		t.Fatal("the call was not pending")
	}
	if !released(counted) {
		t.Fatal("the cancelled call's reply was kept")
	}
}

// TestReplyFrameHandedOutNeverReleased: the reply whose result the caller
// holds is released by nothing the client does later — not the call's end,
// not a later call on the same record, its late replies or its cancelling.
func TestReplyFrameHandedOutNeverReleased(t *testing.T) {
	c, _ := sinkRig(t, 1)
	var got []byte
	num := c.Invoke([]byte("w"), func(res []byte, _ sim.Duration) { got = res })
	c.onRPC(0, wholeReply(tagResponse, num, 1, 0, result(12)))
	accepted := wholeReply(tagResponse, num, 1, 0, result(12))
	c.onRPC(1, accepted)
	next := c.Invoke([]byte("w2"), func([]byte, sim.Duration) {})
	c.onRPC(2, wholeReply(tagResponse, num, 1, 0, result(12)))
	c.onRPC(0, wholeReply(tagResponse, next, 1, 0, result(12)))
	c.Cancel(next)
	// The three other frames of this length are back on the free list, and
	// nothing else: none of them, nor a fourth, may be the accepted one.
	for range 4 {
		if released(accepted) {
			t.Fatal("the reply handed to the caller was released")
		}
	}
	if &got[0] != &accepted[len(accepted)-len(got)] || !bytes.Equal(got, result(12)) {
		t.Fatal("the caller's result is not a view of the accepted reply")
	}
}

// TestReplyFrameFromOutsiderKept: a reply from a host outside the client's
// groups is not counted and not released: the client cannot know where its
// frame came from.
func TestReplyFrameFromOutsiderKept(t *testing.T) {
	c, _ := sinkRig(t, 1)
	num := c.Invoke([]byte("w"), func([]byte, sim.Duration) {})
	outsider := wholeReply(tagResponse, num, 1, 0, result(13))
	c.onRPC(ids.ID(150), outsider)
	if released(outsider) {
		t.Fatal("a reply from outside the client's groups was released")
	}
	if p := c.calls[num]; p.replied != 0 || len(p.byRes) != 0 {
		t.Fatalf("a reply from outside the client's groups was counted: %+v", p)
	}
}
