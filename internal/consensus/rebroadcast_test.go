package consensus

import (
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/wire"
)

// TestShouldRebroadcastExecInversion pins down the view-change re-routing
// predicate, in particular the echo-ordering inversion: a client's later
// request can execute before an earlier one (their echoes completed in
// opposite order), leaving the earlier request held, unexecuted, while the
// client's executed high-water mark has already moved past its number. Keying the "already executed" test off the monotone high-water
// mark labels that victim settled, a view change at that moment skips its
// one rebroadcast, and the client wedges until retransmission — the
// predicate must match the executed number exactly.
func TestShouldRebroadcastExecInversion(t *testing.T) {
	r := &Replica{
		slots:   make(table[Slot, slotState]),
		clients: make(table[ids.ID, clientState]),
	}
	client := ids.ID(200001)
	rs := &reqState{req: Request{Client: client, Num: 5, Payload: []byte("x")}, held: true}
	executedUpTo := func(num uint64) { r.clients[client] = &clientState{execEntry: execEntry{num: num}, ran: true} }

	if !r.shouldRebroadcast(rs) {
		t.Fatal("unproposed, unexecuted request not re-routed")
	}

	// The inversion: num 7 executed, num 5 never did.
	executedUpTo(7)
	if !r.shouldRebroadcast(rs) {
		t.Fatal("inversion victim labelled settled by the exec high-water mark")
	}

	// This exact request executed (the copy of an executed request is
	// normally released; a retransmission can race one back in).
	executedUpTo(5)
	if r.shouldRebroadcast(rs) {
		t.Fatal("executed request re-routed")
	}

	// Proposed but undecided: the new leader may never decide the old
	// slot (mustPropose fills unknown open slots with NoOps), so the
	// request must be re-routed as fresh work.
	executedUpTo(7)
	rs.proposed, rs.slot = true, 12
	if !r.shouldRebroadcast(rs) {
		t.Fatal("undecided proposal not re-routed")
	}

	// Decided: settled regardless of execution progress.
	r.slot(12).decided = true
	if r.shouldRebroadcast(rs) {
		t.Fatal("decided request re-routed")
	}

	// Below the stable checkpoint the slot record is pruned, but the
	// checkpoint itself proves the slot decided.
	delete(r.slots, 12)
	r.chkpt.Seq = 20
	if r.shouldRebroadcast(rs) {
		t.Fatal("checkpointed request re-routed")
	}
}

// TestRetransmittedRequestGetsCachedResult: a request sent again after it
// executed is answered from its client's exactly-once record, with the
// cached result at the slot it executed in (the client's f+1 match covers
// both). An older executed request, or a parked one, sent again gets no
// answer. None of them is taken as new work.
func TestRetransmittedRequestGetsCachedResult(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	var got []Reply
	router.New(rig.net.AddNode(200, "client")).Register(router.ChanRPC, func(_ ids.ID, p []byte) {
		if rep, ok := ParseReply(p); ok {
			rep.Result = slices.Clone(rep.Result)
			got = append(got, rep)
		}
	})
	send := func(num uint64) {
		w := wire.NewWriter(32)
		w.U8(tagRequest)
		Request{Client: 200, Num: num, Payload: []byte("x")}.encode(w)
		r.onRPC(200, w.Finish())
		rig.eng.RunFor(time200us())
	}
	c := r.clients.at(200)
	c.markExecuted(4, 9, []byte("four"), false)
	c.markExecuted(5, 11, []byte("five"), false)
	send(5)
	want := Reply{Tag: tagResponse, Num: 5, At: 11, Result: []byte("five")}
	if len(got) != 1 || got[0].Tag != want.Tag || got[0].Num != want.Num || got[0].At != want.At ||
		got[0].Flags != 0 || string(got[0].Result) != string(want.Result) {
		t.Fatalf("executed request sent again: replies %+v, want one %+v", got, want)
	}
	send(4) // answered at its execution; its result is no longer cached
	c.markExecuted(6, 12, nil, true)
	send(6) // parked: its answer comes when the lock is released
	if len(got) != 1 || len(r.requests) != 0 {
		t.Fatalf("older and parked requests sent again: %d replies, %d request records", len(got), len(r.requests))
	}
}

// TestCachedResultOutlivesLaterApplies holds the exactly-once record to its
// own copy of a result. Flip answers every request into one buffer it keeps,
// so once two other clients' requests have executed, that buffer holds their
// answers; a retransmitted request must still get the bytes its own
// execution produced, from the client record. A request that parks leaves
// the record with no result (pending), and nothing is sent again for it.
func TestCachedResultOutlivesLaterApplies(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	var got []Reply
	for _, id := range []ids.ID{200, 201, 202} {
		rt := router.New(rig.net.AddNode(id, "client"))
		if id == 200 {
			rt.Register(router.ChanRPC, func(_ ids.ID, p []byte) {
				if rep, ok := ParseReply(p); ok {
					rep.Result = slices.Clone(rep.Result)
					got = append(got, rep)
				}
			})
		}
	}
	r.decide(0, 0, Request{Client: 200, Num: 1, Payload: []byte("abc")})
	r.decide(1, 0, Request{Client: 201, Num: 1, Payload: []byte("xyz")})
	r.decide(2, 0, Request{Client: 202, Num: 1, Payload: []byte("uvw")})
	if c := r.clients[200]; c == nil || string(c.res) != "cba" {
		t.Fatalf("client 200's record after two later executions: %+v, want result \"cba\"", c)
	}
	w := wire.NewWriter(32)
	w.U8(tagRequest)
	Request{Client: 200, Num: 1, Payload: []byte("abc")}.encode(w)
	r.onRPC(200, w.Finish())
	rig.eng.RunFor(time200us())
	if len(got) != 2 || string(got[0].Result) != "cba" || string(got[1].Result) != "cba" || got[1].At != 0 {
		t.Fatalf("execution and retransmission replies %+v, want two \"cba\" at slot 0", got)
	}
	c := r.clients[200]
	c.markExecuted(2, 3, nil, true)
	if !c.pending || len(c.res) != 0 {
		t.Fatalf("parked request's record: pending %v, result %q, want pending and no result", c.pending, c.res)
	}
}
