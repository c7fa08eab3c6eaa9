package consensus

import (
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/xcrypto"
)

// retention names, for every map- or slice-typed field of Replica and of
// the records its tables hold, what bounds it. TestEveryTableHasARetentionRule
// fails when a field of those kinds is missing here (state cannot join the
// replica without someone writing down when it is released) or when an
// entry outlives its field.
var retention = map[string]string{
	"Replica.state":         "fixed: n entries, made in NewReplica (their prepares/commits: CHECKPOINT delivery drops what is outside the sender's window)",
	"Replica.groups":        "fixed: n entries, made in NewReplica",
	"Replica.slots":         "pruneBelow: below the stable checkpoint, except a decided slot not yet applied",
	"Replica.requests":      "pruneBelow: copy released at execution, dedup stub below the stable checkpoint, unbacked echo set after one window of grace",
	"Replica.clients":       "pruneBelow: one idle window past the stable checkpoint; a client with a still-parked request is exempt",
	"Replica.cps":           "pruneBelow: two windows below the stable checkpoint (shares at it, snapshot one window)",
	"Replica.deferredResp":  "pruneBelow: one window past the stable checkpoint unless the ticket is still parked; entry deleted when the lock releases",
	"Replica.proposeQ":      "drained by pumpProposals; holds only requests whose echo round completed, so at most what live clients have in flight",
	"Replica.freshScratch":  "scratch of takeProposal: at most one PREPARE's requests (MsgCap bytes)",
	"Replica.pinnedReads":   "<= pinnedReadCap, drained as execution reaches each pin",
	"Replica.joinAnswers":   "fixed: at most n entries, reset when the sync point is adopted",
	"Replica.peerJoinNonce": "fixed: at most n entries",
	"Replica.pendingNV":     "setView: views below the current one; one entry per view this replica is elected to lead, deleted when the view starts",
	"Replica.vcShares":      "setView: views below the current one; one entry (n x n certified states) per view at or above it this replica collected shares for — a Byzantine signer can pre-fill views ahead (ROADMAP residual)",
	"Replica.newViewSent":   "setView: views below the current one; one bool per view at or above it this replica led",

	"slotState.sentLater": "dies with the slot record; one entry per view the slot lived through after its first",
	"slotState.certSigs":  "dies with the slot record; one entry per (view, digest) signed by a replica — unbounded under a Byzantine signer (ROADMAP residual)",
	"slotState.verified":  "dies with the slot record; one entry per distinct verified CERTIFY share (same residual)",

	"execEntry.res": "the client's latest result; dies with the client record",

	"cpState.sigs":     "released once the checkpoint is stable (pruneBelow); at most n entries",
	"cpState.snapshot": "released one window below the stable checkpoint (pruneBelow)",
}

func TestEveryTableHasARetentionRule(t *testing.T) {
	seen := make(map[string]bool)
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				walk(f.Type)
				continue
			}
			if k := f.Type.Kind(); k != reflect.Map && k != reflect.Slice {
				continue
			}
			name := typ.Name() + "." + f.Name
			seen[name] = true
			if retention[name] == "" {
				t.Errorf("%s (%s) has no retention rule: say in the retention table what bounds it", name, f.Type)
			}
		}
	}
	for _, rec := range []any{Replica{}, slotState{}, reqState{}, clientState{}, cpState{}} {
		walk(reflect.TypeOf(rec))
	}
	for name := range retention {
		if !seen[name] {
			t.Errorf("retention table entry %s names no map or slice field", name)
		}
	}
}

// TestFastPathSlotAllocatesOneRecord: a slot that collects both unanimous
// vote sets, sends both promises and decides within one view costs its
// slotState and nothing else — no vote map, no sent-bits map.
func TestFastPathSlotAllocatesOneRecord(t *testing.T) {
	r := &Replica{
		cfg:   Config{Replicas: []ids.ID{0, 1, 2}, Window: 16},
		slots: make(table[Slot, slotState]),
	}
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	var ss *slotState
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range r.cfg.Replicas {
			var bit uint64
			ss, bit = r.voteSlot(p, 0, 7)
			ss.willCertify |= bit
			ss.willCommit |= bit
		}
		ss.markSent(0, sentWillCertify)
		ss.markSent(0, sentWillCommit)
		ss.decided, ss.req = true, req
		if ss.willCommit != r.fullVote() || ss != r.slots[7] {
			t.Fatalf("three votes in view 0: %+v", ss)
		}
		if !ss.owesCommit() || ss.sent(0, sentCommit) {
			t.Fatal("a WILL_COMMIT without its COMMIT is an outstanding promise")
		}
		delete(r.slots, 7)
	})
	if allocs > 1 || ss.sentLater != nil || ss.certSigs != nil || ss.verified != nil {
		t.Fatalf("fast-path slot: %.0f allocations, record %+v", allocs, ss)
	}
	// A second view's bits go to the lazily made map; the first view's stay
	// inline, and each view's promise is judged on its own bits.
	ss.markSent(0, sentCommit)
	ss.markSent(3, sentWillCommit)
	if !ss.sent(3, sentWillCommit) || ss.sent(3, sentCommit) || !ss.sent(0, sentCommit) || !ss.owesCommit() {
		t.Fatalf("per-view sent bits: %+v", ss)
	}
	ss.markSent(3, sentCommit)
	if ss.owesCommit() {
		t.Fatalf("every promise honoured, still owing: %+v", ss)
	}
	var dg [xcrypto.DigestLen]byte
	ss.rememberShare(3, dg, 1, xcrypto.Signature("sig"))
	ss.rememberShare(3, dg, 1, xcrypto.Signature("sig"))
	if len(ss.verified) != 1 || !ss.shareVerified(3, dg, 1, xcrypto.Signature("sig")) ||
		ss.shareVerified(3, dg, 1, xcrypto.Signature("gis")) || ss.shareVerified(3, dg, 2, xcrypto.Signature("sig")) {
		t.Fatalf("verified-share record: %+v", ss.verified)
	}
}
