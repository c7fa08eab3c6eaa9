package consensus

import (
	"testing"

	"repro/internal/ids"
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
