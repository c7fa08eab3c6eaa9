package consensus

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/sim"
)

// Unit tests for the client's read escalation ladder against sink replicas:
// every reply is played by hand, so the order and the sender of each one is
// the test's choice — including replies nobody asked for.

// ladderRead puts one unpinned read on the ladder and returns its number,
// its call record and a counter of done callbacks.
func ladderRead(c *Client) (uint64, *call, *int) {
	fired := new(int)
	num := c.CallAt(0, []byte("r"), Mode{Read: true}, func(Outcome) { *fired++ })
	return num, c.calls[num], fired
}

// asked splits the group into the replicas the read was sent to and the
// rest, in index order.
func asked(p *call, n int) (in, out []ids.ID) {
	for i := 0; i < n; i++ {
		if p.contacted&(1<<uint(i)) != 0 {
			in = append(in, ids.ID(i))
		} else {
			out = append(out, ids.ID(i))
		}
	}
	return in, out
}

func vote(c *Client, from ids.ID, num uint64, result string) {
	c.onRPC(from, wholeReply(tagReadResponse, num, 1, readFlagServed, []byte(result)))
}

func refuse(c *Client, from ids.ID, num uint64) {
	c.onRPC(from, wholeReply(tagReadResponse, num, 1, 0, nil))
}

// TestReadFirstRungIsFPlusOne: a read asks f+1 replicas, and consecutive
// request numbers rotate the choice over the whole group.
func TestReadFirstRungIsFPlusOne(t *testing.T) {
	c, _ := sinkRig(t, 2)
	var union uint64
	for i := 0; i < 5; i++ {
		_, p, _ := ladderRead(c)
		if got := bits.OnesCount64(p.contacted); got != 3 {
			t.Fatalf("read %d asked %d replicas, want f+1 = 3", i, got)
		}
		union |= p.contacted
	}
	if union != c.groupMask(0) {
		t.Fatalf("five consecutive reads asked replicas %05b, want all five", union)
	}
}

// TestReadFirstRungSpreadsOutstandingReads: a client whose reads await
// replicas 0 and 1 sends its next read to a first rung that includes
// replica 2, though rotation from the request number alone would ask 0 and
// 1.
func TestReadFirstRungSpreadsOutstandingReads(t *testing.T) {
	c, _ := sinkRig(t, 1)
	a, pa, _ := ladderRead(c)
	vote(c, 2, a, "x")
	b, pb, _ := ladderRead(c)
	vote(c, 2, b, "x")
	if waits := pa.contacted&^pa.replied | pb.contacted&^pb.replied; waits != 0b011 {
		t.Fatalf("reads %d and %d await replicas %03b, want 0 and 1", a, b, waits)
	}
	num, p, _ := ladderRead(c)
	if bits.OnesCount64(p.contacted) != 2 || p.contacted&0b100 == 0 || num%3 != 0 {
		t.Fatalf("read %d asked %03b, want replica 2 and one other", num, p.contacted)
	}
}

// TestReadLoadDrainsOnEveryEnd: a client's count of reads outstanding per
// replica counts each replica a read awaits once, and reads zero again
// after every way a read ends or leaves the unordered rungs: accepted on
// its first rung, accepted after a widen, cancelled, fallen back after f+1
// refusals, never answered until both rungs time out, and a strong read
// cancelled in its pin round.
func TestReadLoadDrainsOnEveryEnd(t *testing.T) {
	ends := []struct {
		name string
		mode Mode
		end  func(c *Client, eng *sim.Engine, num uint64, p *call)
	}{
		{"accepted", Mode{Read: true}, func(c *Client, _ *sim.Engine, num uint64, p *call) {
			in, _ := asked(p, 3)
			vote(c, in[0], num, "x")
			vote(c, in[1], num, "x")
		}},
		{"widened", Mode{Read: true}, func(c *Client, _ *sim.Engine, num uint64, p *call) {
			in, out := asked(p, 3)
			refuse(c, in[0], num)
			if p.firstRung == 0 || c.readLoad(0)[out[0]] != 1 {
				panic("a refusal did not widen to the third replica")
			}
			vote(c, in[1], num, "x")
			vote(c, out[0], num, "x")
		}},
		{"cancelled", Mode{Read: true}, func(c *Client, _ *sim.Engine, num uint64, _ *call) {
			c.Cancel(num)
		}},
		{"fallen back", Mode{Read: true}, func(c *Client, _ *sim.Engine, num uint64, p *call) {
			for id := ids.ID(0); id < 3; id++ {
				refuse(c, id, num)
			}
			if p.ordNum == 0 || c.PendingCount() != 2 {
				panic("refusals did not fall back")
			}
		}},
		{"never answered", Mode{Read: true}, func(c *Client, eng *sim.Engine, _ uint64, p *call) {
			eng.RunFor(defaultReadTimeout)
			if p.ordNum == 0 || p.firstRung == 0 {
				panic("silence did not widen and fall back")
			}
		}},
		{"strong, pin round cancelled", Mode{Read: true, Strong: true}, func(c *Client, _ *sim.Engine, num uint64, p *call) {
			for id := ids.ID(0); id < 3; id++ { // skewed versions: pin at the highest
				c.onRPC(id, wholeReply(tagReadResponse, num, 5+uint64(id), readFlagServed, []byte("v")))
			}
			if p.mode.At != 7 || !slices.Equal(c.readLoad(0), []int{1, 1, 1}) {
				panic("the pin round did not ask the whole group again")
			}
			c.Cancel(num)
		}},
	}
	for _, e := range ends {
		c, eng := sinkRig(t, 1)
		var num uint64
		for i := 0; i < 2; i++ { // the second read reuses the first one's record
			num = c.CallAt(0, []byte("r"), e.mode, func(Outcome) {})
			p := c.calls[num]
			load := 0
			for _, n := range c.readLoad(0) {
				load += n
			}
			if load != bits.OnesCount64(p.contacted) || p.awaits != p.contacted {
				t.Fatalf("%s: asked %03b, counted %v", e.name, p.contacted, c.readLoad(0))
			}
			e.end(c, eng, num, p)
			if !slices.Equal(c.readLoad(0), []int{0, 0, 0}) {
				t.Fatalf("%s, read %d: counts %v once it ended", e.name, i, c.readLoad(0))
			}
			c.Cancel(num) // a fallen-back read's ordered request
		}
	}
}

// TestReadUnsolicitedVoteCountsOnce: a group member that was not asked (a
// Byzantine replica guessing request numbers) may cast one vote. Repeating
// it changes nothing, and when the widen reaches that replica its second
// answer is not a second vote.
func TestReadUnsolicitedVoteCountsOnce(t *testing.T) {
	c, _ := sinkRig(t, 2) // need f+1 = 3 matching
	num, p, fired := ladderRead(c)
	in, out := asked(p, 5)
	byz, honest := out[0], out[1]

	vote(c, byz, num, "x")
	vote(c, byz, num, "x")
	vote(c, in[0], num, "x") // two votes for x: byz + in[0]
	refuse(c, in[1], num)    // x can still get its third from in[2]
	if *fired != 0 || c.ReadWidens != 0 {
		t.Fatalf("after 2 votes and a refusal: done fired %d times, %d widens", *fired, c.ReadWidens)
	}
	refuse(c, in[2], num) // the first rung is spent: ask the rest
	if c.ReadWidens != 1 || p.contacted != c.groupMask(0) || c.ReadFallbacks != 0 {
		t.Fatalf("widens=%d contacted=%05b fallbacks=%d, want the whole group asked once", c.ReadWidens, p.contacted, c.ReadFallbacks)
	}
	vote(c, byz, num, "x") // the answer to the widen: already counted
	if *fired != 0 {
		t.Fatal("a replica's second reply completed the quorum")
	}
	vote(c, honest, num, "x")
	if *fired != 1 || c.FastReads != 1 || c.PendingCount() != 0 {
		t.Fatalf("after the third distinct vote: fired=%d fast=%d pending=%d", *fired, c.FastReads, c.PendingCount())
	}
}

// TestReadUnsolicitedReplyCannotStall: when the only replica left to ask
// has already answered unasked, a spent first rung goes straight to the
// ordered path — there is no reply to wait for, and waiting would let one
// Byzantine guess turn every benign mismatch into a timeout.
func TestReadUnsolicitedReplyCannotStall(t *testing.T) {
	c, eng := sinkRig(t, 1)
	num, p, fired := ladderRead(c)
	in, out := asked(p, 3)

	vote(c, out[0], num, "z")
	vote(c, in[0], num, "x")
	if c.ReadWidens != 0 {
		t.Fatal("widened while the second asked replica could still match")
	}
	vote(c, in[1], num, "y")
	if c.ReadWidens != 1 || c.ReadFallbacks != 1 {
		t.Fatalf("widens=%d fallbacks=%d, want 1 and 1 at once", c.ReadWidens, c.ReadFallbacks)
	}
	vote(c, out[0], num, "x") // after the fallback: ignored
	eng.RunFor(2 * defaultReadTimeout)
	if *fired != 0 || c.FastReads != 0 || c.ReadFallbacks != 1 {
		t.Fatalf("fired=%d fast=%d fallbacks=%d after the fallback", *fired, c.FastReads, c.ReadFallbacks)
	}
}

// TestReadCancelOnEveryRung: Cancel(num) abandons the read wherever it
// stands — first rung, widened, strong pin round, ordered fallback — under
// the one number the caller holds; nothing fires later and no timer of the
// abandoned read does anything.
func TestReadCancelOnEveryRung(t *testing.T) {
	rungs := []struct {
		name  string
		climb func(c *Client, num uint64, p *call)
	}{
		{"first rung", func(*Client, uint64, *call) {}},
		{"widened", func(c *Client, num uint64, p *call) {
			in, _ := asked(p, 3)
			refuse(c, in[0], num)
			if c.ReadWidens != 1 {
				panic("refusal did not widen")
			}
		}},
		{"ordered fallback", func(c *Client, num uint64, p *call) {
			for id := ids.ID(0); id < 3; id++ {
				refuse(c, id, num)
			}
			if p.ordNum == 0 {
				panic("refusals did not fall back")
			}
		}},
	}
	for _, rung := range rungs {
		name := rung.name
		c, eng := sinkRig(t, 1)
		num, p, fired := ladderRead(c)
		rung.climb(c, num, p)
		if !c.Cancel(num) || c.Cancel(num) {
			t.Fatalf("%s: Cancel did not report pending-then-gone", name)
		}
		eng.RunFor(4 * defaultReadTimeout)
		widens, fallbacks := c.ReadWidens, c.ReadFallbacks
		vote(c, 0, num, "x")
		vote(c, 1, num, "x")
		if *fired != 0 || c.PendingCount() != 0 || c.ReadWidens != widens || c.ReadFallbacks != fallbacks {
			t.Fatalf("%s: after Cancel fired=%d pending=%d widens %d->%d fallbacks %d->%d",
				name, *fired, c.PendingCount(), widens, c.ReadWidens, fallbacks, c.ReadFallbacks)
		}
	}

	// The strong read keeps its number into the pin round.
	c, eng := sinkRig(t, 1)
	fired := 0
	num := c.Call(0, []byte("s"), Mode{Read: true, Strong: true}, func([]byte, sim.Duration) { fired++ })
	for id := ids.ID(0); id < 3; id++ { // skewed versions: pin at the highest
		c.onRPC(id, wholeReply(tagReadResponse, num, 5+uint64(id), readFlagServed, []byte("v")))
	}
	if p := c.calls[num]; p == nil || p.mode.At != 7 || p.replied != 0 {
		t.Fatalf("strong read did not enter its pin round under number %d", num)
	}
	if !c.Cancel(num) {
		t.Fatal("Cancel lost the strong read in its pin round")
	}
	eng.RunFor(4 * defaultReadTimeout)
	if fired != 0 || c.PendingCount() != 0 || c.ReadFallbacks != 0 {
		t.Fatalf("after Cancel fired=%d pending=%d fallbacks=%d", fired, c.PendingCount(), c.ReadFallbacks)
	}
}

// TestReadPassOverAndProbe: the replica that forced a widen is passed over
// by the reads that follow; a probe read asks it without waiting for it,
// and its late reply — held to the accepted class — makes it a first-rung
// target again, while a wrong late reply does not.
func TestReadPassOverAndProbe(t *testing.T) {
	c, _ := sinkRig(t, 1)
	num, p, _ := ladderRead(c)
	in, out := asked(p, 3)
	bad := in[0]
	refuse(c, bad, num)
	vote(c, in[1], num, "x")
	vote(c, out[0], num, "x")
	if c.FastReads != 1 || c.readSuspect[0] != 1<<uint(bad) {
		t.Fatalf("fast=%d suspect=%03b, want the refusing replica %d passed over", c.FastReads, c.readSuspect[0], bad)
	}

	answerProbe := func(result string) {
		t.Helper()
		for {
			num, p, _ := ladderRead(c)
			if num%readProbeEvery != 0 {
				if p.contacted&(1<<uint(bad)) != 0 {
					t.Fatalf("read %d asked the passed-over replica", num)
				}
				c.Cancel(num)
				continue
			}
			if p.contacted != c.groupMask(0) {
				t.Fatalf("probe read %d asked %03b, want the passed-over replica too", num, p.contacted)
			}
			vote(c, in[1], num, "x")
			vote(c, out[0], num, "x") // accepted without the probed replica
			vote(c, bad, num, result)
			return
		}
	}
	answerProbe("wrong")
	if c.readSuspect[0] != 1<<uint(bad) {
		t.Fatal("a late reply outside the accepted class cleared the replica")
	}
	answerProbe("x")
	if c.readSuspect[0] != 0 {
		t.Fatal("a late reply in the accepted class did not clear the replica")
	}
}

// TestReadFallbackKeepsItsRecord: a read that falls back stays one record,
// filed under its own number and its ordered request's: it counts twice in
// PendingCount, opens no second record, cancels by the caller's handle
// only, counts ordered replies only under the ordered number, and goes back
// to the free list once it resolves.
func TestReadFallbackKeepsItsRecord(t *testing.T) {
	c, _ := sinkRig(t, 1)
	var outs []Outcome
	num := c.CallAt(0, []byte("r"), Mode{Read: true}, func(o Outcome) { outs = append(outs, o) })
	p := c.calls[num]
	for id := ids.ID(0); id < 3; id++ {
		refuse(c, id, num)
	}
	if p.ordNum == 0 || c.calls[p.ordNum] != p || c.PendingCount() != 2 || len(c.free) != 0 {
		t.Fatalf("fallen-back read: ordered number %d filed %v, %d pending, %d free records",
			p.ordNum, c.calls[p.ordNum] == p, c.PendingCount(), len(c.free))
	}
	if c.Cancel(p.ordNum) || c.PendingCount() != 2 {
		t.Fatal("Cancel took the ordered request's number instead of the caller's handle")
	}
	ordered := func(from ids.ID, n uint64) {
		c.onRPC(from, wholeReply(tagResponse, n, 4, 0, []byte("v")))
	}
	ordered(0, num)
	ordered(1, num) // under the read's own number: not a vote
	if len(outs) != 0 || p.replied != 0 || len(p.byRes) != 0 {
		t.Fatalf("ordered replies under the read's number counted: %d outcomes, record %+v", len(outs), p)
	}
	ordered(0, p.ordNum)
	ordered(1, p.ordNum)
	ordered(2, p.ordNum) // late
	if len(outs) != 1 || !outs[0].FellBack || string(outs[0].Result) != "v" || outs[0].Slot != 5 || outs[0].Frontier != 5 {
		t.Fatalf("outcomes %+v, want one fallen-back \"v\" at the ratcheted floor 5", outs)
	}
	if c.PendingCount() != 0 || len(c.free) != 1 || c.free[0] != p {
		t.Fatalf("after the ordered answer: %d pending, free list %v, want exactly the read's record", c.PendingCount(), c.free)
	}
}
