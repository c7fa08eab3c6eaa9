package consensus

// A per-operation record — slot, request, ordered call, read — is recycled,
// not reallocated: whoever owns it clears it on release and hands it to the
// next new key. These tests hold each record to "a recycled record is a
// fresh record": every field is filled through the real handlers, the record
// is released, and what the next key gets equals a newly made record, by
// reflection, except its key and its bound callback. They also hold the
// hazards recycling brings: a timer of the record's previous life, a late
// reply to its previous call, and a result view a caller kept.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// fills records which fields of one record type have held something at some
// point: a non-zero value, or a non-empty slice or map. Func fields are
// callbacks, left out.
type fills map[string]bool

func (seen fills) note(rec any) {
	v := reflect.ValueOf(rec)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Func:
		case reflect.Slice, reflect.Map:
			seen[v.Type().Field(i).Name] = seen[v.Type().Field(i).Name] || f.Len() > 0
		default:
			seen[v.Type().Field(i).Name] = seen[v.Type().Field(i).Name] || !f.IsZero()
		}
	}
}

// requireAll fails for every non-func field of the record type never seen
// filled: its clearing on release would go untested.
func (seen fills) requireAll(t *testing.T, rec any) {
	t.Helper()
	typ := reflect.TypeOf(rec)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Func && !seen[f.Name] {
			t.Errorf("%s.%s was never filled: fill it through a handler so its release is tested", typ.Name(), f.Name)
		}
	}
}

// requireFresh fails unless got equals fresh field by field. Both must come
// with their bound callbacks already set to nil (reflect.DeepEqual never
// equates two set funcs).
func requireFresh(t *testing.T, got, fresh any) {
	t.Helper()
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("recycled record is not a fresh one:\ngot   %+v\nfresh %+v", got, fresh)
	}
}

func clientFrame(req Request) []byte {
	w := wire.NewWriter(64)
	w.U8(tagRequest)
	req.encode(w)
	return w.Finish()
}

// TestRecycledSlotRecordIsFresh drives one slot record through both paths
// and two views at replica 2 — parked PREPARE, fast-path votes and
// promises, a CERTIFY share, the COMMIT that lets it seal into view 1, the
// view-1 PREPARE that arms its fallback, the decision — then releases it.
// Its view records are held to the same rule: every field filled, and
// emptied on release with their storage kept for the next slot.
func TestRecycledSlotRecordIsFresh(t *testing.T) {
	rig := newMsgFuzzRig(t)
	defer rig.stop()
	r := rig.reps[2]
	const s = Slot(3) // free in view 1 under the rig's NEW_VIEW plan
	req := Request{Client: 200, Num: 1, Payload: []byte("recycled")}
	dg := req.Digest()
	st := xcrypto.Certify(0, uint64(s), dg)
	share := func(p ids.ID) xcrypto.Signature { return rig.reg.Signer(p).Sign(rig.signing, st.Bytes()) }
	seen, seenView := fills{}, fills{}
	step := func(what string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: not accepted", what)
		}
		if ss := r.slots[s]; ss != nil {
			seen.note(*ss)
			for _, sv := range ss.views {
				seenView.note(sv)
			}
		}
	}
	prep := func(v View) []byte { return EncodePrepare(Prepare{View: v, Slot: s, Req: req}) }

	step("view-0 PREPARE before the client copy", r.accepts(0, prep(0)) && r.slots[s].waitingReq != nil)
	for p := ids.ID(0); p < 3; p++ {
		r.onWillCertify(p, 0, s)
	}
	step("unanimous WILL_CERTIFY", r.slots[s].sent(0, sentWillCommit))
	r.onWillCommit(0, 0, s)
	r.onWillCommit(1, 0, s)
	step("two WILL_COMMITs", !r.isDecided(s))
	r.onCertify(1, 0, s, dg, share(1))
	step("a CERTIFY share", len(r.slots[s].find(0).shares) == 1)
	rig.advance(t, 1)
	nv := rig.newViewFrame()
	step("NEW_VIEW of view 1", r.accepts(1, nv) && r.view == 0) // the WILL_COMMIT still owes its COMMIT
	r.onCertify(r.cfg.Self, 0, s, dg, share(r.cfg.Self))
	step("own share: COMMIT, then the seal", r.slots[s].sent(0, sentCommit) && r.view == 1)
	step("view-1 PREPARE", r.accepts(1, prep(1)) && r.slots[s].fallback.Pending() && r.slots[s].sent(1, sentWillCertify))
	for p := ids.ID(0); p < 3; p++ {
		r.onWillCertify(p, 1, s)
	}
	step("view-1 votes", r.slots[s].find(1).willCertify == r.fullVote() && len(r.slots[s].views) == 2)
	for p := ids.ID(0); p < 3; p++ {
		r.onWillCommit(p, 1, s)
	}
	step("decided in view 1", r.isDecided(s))

	seen.requireAll(t, slotState{})
	seenView.requireAll(t, slotView{})

	// A second life: the next slot's first view record is the emptied one,
	// its share storage kept.
	ss := r.slots[s]
	r.dropSlot(s, ss)
	first := &ss.views[:1][0]
	next := Request{Client: 200, Num: 2, Payload: []byte("second life")}
	if !r.accepts(1, EncodePrepare(Prepare{View: 1, Slot: s + 1, Req: next})) || r.slots[s+1] != ss ||
		len(ss.views) != 1 || &ss.views[0] != first || ss.views[0].v != 1 || cap(first.shares) == 0 {
		t.Fatalf("view-1 PREPARE of the next slot: not accepted, or a new view record: %+v", ss.views)
	}

	r.dropSlot(s+1, ss)
	if r.slots[s+1] != nil || !slices.Contains(r.freeSlots, ss) || ss.r != r {
		t.Fatalf("released slot record: in table %v, kept %v, replica kept %v", r.slots[s+1] != nil, slices.Contains(r.freeSlots, ss), ss.r == r)
	}
	if again := r.slot(9); again != ss {
		t.Fatal("the next new slot did not take the released record")
	}
	for i, sv := range ss.views[:cap(ss.views)] {
		if sv.v != 0 || sv.willCertify|sv.willCommit != 0 || sv.sent != 0 || len(sv.shares) != 0 ||
			cap(sv.shares) > 0 && !reflect.DeepEqual(sv.shares[:cap(sv.shares)], make(digestShares, cap(sv.shares))) {
			t.Fatalf("released view record %d is not empty: %+v", i, sv)
		}
	}
	got := *ss
	got.r, got.views = nil, nil
	requireFresh(t, got, freshSlot(9))
}

// TestRecycledRequestRecordIsFresh drives one request record at the view-0
// leader through an echo ahead of the client copy, the one-window grace, the
// client copy and its EchoTimeout, the completed echo round, the proposal in
// slot 1 and execution, until pruneBelow releases it.
func TestRecycledRequestRecordIsFresh(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	a := Request{Client: 200, Num: 1, Payload: []byte("a")}
	b := Request{Client: 200, Num: 2, Payload: []byte("b")}
	seen := fills{}
	note := func() {
		if rs := r.requests[b.Digest()]; rs != nil {
			seen.note(*rs)
		}
	}

	// a goes into slot 0 and executes, so b's proposal lands in slot 1.
	r.onRPC(200, clientFrame(a))
	r.onDirect(1, appendEcho(nil, a.Digest()))
	r.onDirect(2, appendEcho(nil, a.Digest()))
	if rs := r.requests[a.Digest()]; rs == nil || !rs.proposed || rs.slot != 0 {
		t.Fatalf("a not proposed in slot 0: %+v", rs)
	}
	r.decide(0, 0, a)

	r.onDirect(1, appendEcho(nil, b.Digest())) // an echo ahead of the client's copy
	note()
	r.pruneBelow(0) // an unbacked echo set gets one window of grace
	note()
	r.onRPC(200, clientFrame(b))
	note()
	if rs := r.requests[b.Digest()]; !rs.held || !rs.grace || !rs.echoTimer.Pending() {
		t.Fatalf("b: client copy behind a grace echo set, EchoTimeout armed: %+v", rs)
	}
	r.onDirect(2, appendEcho(nil, b.Digest()))
	note()
	rs := r.requests[b.Digest()]
	if !rs.proposed || rs.slot != 1 || rs.echoes != 0 {
		t.Fatalf("b not proposed in slot 1 with its echo round closed: %+v", rs)
	}
	r.decide(1, 0, b)
	note()
	seen.requireAll(t, reqState{})

	r.pruneBelow(2) // the dedup stubs fall below the checkpoint: both records go
	if len(r.requests) != 0 || !slices.Contains(r.freeRequests, rs) || rs.r != r {
		t.Fatalf("after the prune: %d records, b's kept %v", len(r.requests), slices.Contains(r.freeRequests, rs))
	}
	fresh := *(&Replica{requests: make(table[[xcrypto.DigestLen]byte, reqState])}).request(b.Digest())
	fresh.r = nil
	for _, kept := range r.freeRequests {
		got := *kept
		got.r = nil
		requireFresh(t, got, fresh)
	}
	if next := r.request(a.Digest()); !slices.Contains(r.freeRequests[:cap(r.freeRequests)], next) {
		t.Fatal("a new digest did not take a released record")
	}
}

// TestPrunedSlotsFallbackDiesWithIt: a slot whose fallback was armed and then
// pruned is reused for another slot; when the old deadline passes, nothing
// signs a CERTIFY, for the old slot or the new one.
func TestPrunedSlotsFallbackDiesWithIt(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[1]
	old := Request{Client: 200, Num: 1, Payload: []byte("old")}
	next := Request{Client: 200, Num: 2, Payload: []byte("next")}
	if !r.accepts(0, EncodePrepare(Prepare{View: 0, Slot: 5, Req: old})) {
		t.Fatal("PREPARE of slot 5 rejected")
	}
	r.onRPC(200, clientFrame(old))
	ss := r.slots[5]
	if !ss.fallback.Pending() {
		t.Fatal("endorsing slot 5 armed no fallback")
	}
	r.pruneBelow(6)
	sentBefore := r.auxOut.Next()
	// The next PREPARE parks (no client copy yet), so the slot arms no
	// fallback of its own: only the old deadline could sign for it.
	if !r.accepts(0, EncodePrepare(Prepare{View: 0, Slot: 7, Req: next})) || r.slots[7] != ss || r.slots[7].waitingReq == nil {
		t.Fatal("slot 7 did not reuse slot 5's record, or did not park")
	}
	rig.eng.RunFor(rig.reps[1].cfg.SlowPathDelay * 3 / 2) // past the old deadline, short of suspicion
	// (Slot 5 may have a record again: this replica's own WILL_CERTIFY
	// reached it after the prune.)
	if n := r.auxOut.Next() - sentBefore; n != 0 || r.slots[5] != nil && r.slots[5].sent(0, sentCertify) || r.slots[7].sent(0, sentCertify) {
		t.Fatalf("the pruned slot's deadline fired: %d aux broadcasts, slot 5 %+v, slot 7 %+v", n, r.slots[5], r.slots[7])
	}
}

// twoGroupSinks is sinkRig with two groups of three sinks (IDs 0-2, 3-5),
// so a call can name group 1.
func twoGroupSinks(t *testing.T) (*Client, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	groups := [][]ids.ID{{0, 1, 2}, {3, 4, 5}}
	for _, g := range groups {
		for _, id := range g {
			router.New(net.AddNode(id, fmt.Sprintf("sink%d", id)))
		}
	}
	c := NewMultiClient(router.New(net.AddNode(200, "client")), groups)
	eng.RunFor(sim.Microsecond) // calls start at a non-zero time
	return c, eng
}

// TestRecycledCallRecordsAreFresh: one call record, used by an ordered call,
// then by a widened read that fell back, then by a strong read that re-read
// pinned, goes back to the free list after each and comes back fresh.
func TestRecycledCallRecordsAreFresh(t *testing.T) {
	c, _ := twoGroupSinks(t)
	reply := func(tag uint8, from ids.ID, num, version uint64, flags uint8, result string) {
		c.onRPC(from, wholeReply(tag, num, version, flags, []byte(result)))
	}
	kept := func(what string, fired, want int, p *call) {
		t.Helper()
		if fired != want || len(c.free) != 1 || c.free[0] != p || c.PendingCount() != 0 {
			t.Fatalf("%s: done fired %d times in all (want %d), free list %v, %d pending", what, fired, want, c.free, c.PendingCount())
		}
		requireFresh(t, *p, call{c: c, byRes: tallies{}})
	}

	seen := fills{}
	fired := 0
	num := c.CallAt(1, []byte("w"), Mode{}, func(Outcome) { fired++ })
	p := c.calls[num]
	reply(tagResponse, 3, num, 4, respFlagParked, "ok")
	seen.note(*p)
	reply(tagResponse, 4, num, 4, respFlagParked, "ok")
	kept("ordered call", fired, 1, p)

	num = c.CallAt(1, []byte("r"), Mode{Read: true}, func(Outcome) { fired++ })
	if c.calls[num] != p {
		t.Fatal("the read did not take the released record")
	}
	seen.note(*p)
	in, _ := asked(p, 3)
	reply(tagReadResponse, c.groups[1][in[0]], num, 5, 0, "") // a refusal: widen
	reply(tagReadResponse, c.groups[1][in[1]], num, 5, readFlagServed, "v")
	seen.note(*p)
	for _, id := range c.groups[1] {
		reply(tagReadResponse, id, num, 5, 0, "") // the rest refuse: the ordered path
	}
	seen.note(*p)
	if p.ordNum == 0 || p.firstRung == 0 {
		t.Fatalf("read did not widen and fall back: %+v", p)
	}
	reply(tagResponse, 3, p.ordNum, 6, 0, "v")
	reply(tagResponse, 5, p.ordNum, 6, 0, "v")
	kept("fallen-back read", fired, 2, p)

	strong := c.Call(1, []byte("s"), Mode{Read: true, Strong: true}, func([]byte, sim.Duration) { fired++ })
	if c.calls[strong] != p {
		t.Fatal("the strong read did not take the released record")
	}
	for i, id := range c.groups[1] { // skewed versions: the pin round
		reply(tagReadResponse, id, strong, 7+uint64(i), readFlagServed, "v")
	}
	seen.note(*p)
	for _, id := range c.groups[1] {
		reply(tagReadResponse, id, strong, 9, readFlagServed, "v")
	}
	kept("strong read", fired, 3, p)
	seen.requireAll(t, call{})
}

// TestLateReplyDoesNotCountForTheNextCall: the record of a completed call
// goes to the next call, and a reply to the completed one that arrives late
// is not a vote for the new one.
func TestLateReplyDoesNotCountForTheNextCall(t *testing.T) {
	c, _ := sinkRig(t, 1)
	fired := 0
	first := c.Invoke([]byte("a"), func([]byte, sim.Duration) { fired++ })
	p := c.calls[first]
	c.onRPC(0, wholeReply(tagResponse, first, 1, 0, []byte("x")))
	c.onRPC(1, wholeReply(tagResponse, first, 1, 0, []byte("x")))
	second := c.Invoke([]byte("b"), func([]byte, sim.Duration) { fired++ })
	if fired != 1 || c.calls[second] != p {
		t.Fatalf("first call fired %d times; second call reuses its record: %v", fired, c.calls[second] == p)
	}
	c.onRPC(2, wholeReply(tagResponse, first, 1, 0, []byte("x"))) // late
	c.onRPC(0, wholeReply(tagResponse, second, 1, 0, []byte("x")))
	if fired != 1 || p.replied != 1 || len(p.byRes) != 1 || p.byRes[0].count != 1 {
		t.Fatalf("late reply counted toward the next call: fired %d, record %+v", fired, p)
	}

	// The same for reads, whose late replies are also read for probes.
	first = c.Call(0, []byte("r"), Mode{Read: true}, func([]byte, sim.Duration) { fired++ })
	rp := c.calls[first]
	in, _ := asked(rp, 3)
	readVote := func(from ids.ID, num uint64) {
		c.onRPC(from, wholeReply(tagReadResponse, num, 5, readFlagServed, []byte("x")))
	}
	readVote(in[0], first)
	readVote(in[1], first)
	second = c.Call(0, []byte("q"), Mode{Read: true}, func([]byte, sim.Duration) { fired++ })
	if fired != 2 || c.calls[second] != rp {
		t.Fatalf("first read fired %d in all; second read reuses its record: %v", fired, c.calls[second] == rp)
	}
	for id := ids.ID(0); id < 3; id++ {
		readVote(id, first) // late, or unasked
	}
	if fired != 2 || rp.replied != 0 || len(rp.byRes) != 0 {
		t.Fatalf("late read replies counted toward the next read: fired %d, record %+v", fired, rp)
	}
}

// TestDoneResultOutlivesLaterCalls: the result a done callback receives is a
// view of the reply frame, not of a recycled record; it reads the same after
// 200 more calls on a live cluster, whose free lists never hold more than
// their tables' peak.
func TestDoneResultOutlivesLaterCalls(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	c := NewClient(router.New(rig.net.AddNode(200, "client")), []ids.ID{0, 1, 2})
	peakSlots, peakRequests := make([]int, 3), make([]int, 3)
	call := func(payload []byte) []byte {
		t.Helper()
		var got []byte
		c.Invoke(payload, func(res []byte, _ sim.Duration) { got = res })
		for got == nil && rig.eng.Step() {
			for i, r := range rig.reps {
				peakSlots[i] = max(peakSlots[i], len(r.slots))
				peakRequests[i] = max(peakRequests[i], len(r.requests))
			}
		}
		if got == nil {
			t.Fatalf("call %q did not complete", payload)
		}
		return got
	}
	kept := call([]byte("the first request"))
	want := slices.Clone(kept)
	for i := 0; i < 200; i++ {
		call([]byte(fmt.Sprintf("request %03d", i)))
	}
	if !bytes.Equal(kept, want) {
		t.Fatalf("a kept result changed under later calls: %q, was %q", kept, want)
	}
	for i, r := range rig.reps {
		if len(r.slots)+len(r.freeSlots) > peakSlots[i] || len(r.requests)+len(r.freeRequests) > peakRequests[i] {
			t.Fatalf("replica %d: slots %d+%d kept (peak %d), requests %d+%d kept (peak %d)", i,
				len(r.slots), len(r.freeSlots), peakSlots[i], len(r.requests), len(r.freeRequests), peakRequests[i])
		}
	}
	if len(c.free) != 1 {
		t.Fatalf("a client with one call at a time keeps %d call records", len(c.free))
	}
}

// TestReadBacklogRecycledAndSilenced: the read core's queue and the queue of
// waiting reads each keep their backing array and drop every reply frame
// they let go, the pool drops the one it sent, and replies still held when
// the replica stops — on the read core, on the pool and waiting — are never
// sent: they die with the crashed cores.
func TestReadBacklogRecycledAndSilenced(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	const n = 8
	next := uint64(0)
	burst := func(r *Replica) { // n reads dispatched: one on each core, the rest waiting
		t.Helper()
		served, sent := r.ReadsServed, len(rig.replies)
		for i := 0; i < n; i++ {
			next++
			rig.read(r.cfg.Self, next, "k")
		}
		for r.ReadsServed < served+n && rig.eng.Step() {
		}
		if backlog(r) != 1 || !poolHolds(r) || r.reads.waiting.len() != n-2 || len(rig.replies) != sent {
			t.Fatalf("%d on the read core, one on the pool %v, %d waiting, %d sent: want 1, true and %d",
				backlog(r), poolHolds(r), r.reads.waiting.len(), len(rig.replies)-sent, n-2)
		}
	}
	r := rig.reps[1]
	burst(r)
	queues := []*readQueue{&r.reads.onCore, &r.reads.waiting}
	arrays := []*readReply{&r.reads.onCore.replies[0], &r.reads.waiting.replies[0]}
	for round := 0; round < 2; round++ {
		rig.eng.RunFor(sim.Millisecond)
		if len(rig.replies) != n*(round+1) {
			t.Fatalf("round %d: %d replies", round, len(rig.replies))
		}
		if poolHolds(r) {
			t.Fatalf("round %d: the pool still holds its sent reply", round)
		}
		for i, q := range queues {
			if len(q.replies) != 0 || q.head != 0 || &q.replies[:1][0] != arrays[i] {
				t.Fatalf("round %d, queue %d: %d from %d, same array %v", round, i, len(q.replies), q.head, &q.replies[:1][0] == arrays[i])
			}
			for j, rep := range q.replies[:cap(q.replies)] {
				if rep.frame != nil {
					t.Fatalf("round %d, queue %d: entry %d of the drained queue still holds a frame", round, i, j)
				}
			}
		}
		if round == 0 {
			burst(r)
		}
	}

	sent := len(rig.replies)
	burst(r)
	r.Stop()
	burst(rig.reps[2])
	rig.reps[2].Stop()
	rig.eng.RunFor(sim.Millisecond)
	if len(rig.replies) != sent {
		t.Fatalf("%d replies sent after Stop", len(rig.replies)-sent)
	}
}
