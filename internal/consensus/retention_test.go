package consensus

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/sim"
	"repro/internal/xcrypto"
)

// retention names, for every map- or slice-typed field of Replica, of the
// records its tables hold and of its read lanes, what bounds it. TestEveryTableHasARetentionRule
// fails when a field of those kinds is missing here (state cannot join the
// replica without someone writing down when it is released) or when an
// entry outlives its field.
var retention = map[string]string{
	"Replica.state":         "fixed: n entries, made in NewReplica (their prepares/commits: CHECKPOINT delivery drops what is outside the sender's window; each holds at most one CERTIFY_CHECKPOINT share beyond the two windows admits takes)",
	"Replica.groups":        "fixed: n entries, made in NewReplica",
	"Replica.slots":         "pruneBelow: below the stable checkpoint, except a decided slot not yet applied",
	"Replica.requests":      "pruneBelow: copy released at execution, dedup stub below the stable checkpoint, unbacked echo set after one window of grace",
	"Replica.clients":       "pruneBelow: one idle window past the stable checkpoint; a client with a still-parked request is exempt",
	"Replica.cps":           "pruneBelow: two windows below the stable checkpoint (shares at it, snapshot one window); admits opens none beyond the next two windows",
	"Replica.settled":       "pruneBelow: cleared at every stable checkpoint; at most 2 x Window (view, slot) pairs below it, each at most n shares, one per signer (a share past that is verified and not kept)",
	"Replica.freeSlots":     "holds only records Replica.slots dropped and has not taken back, so with the table at most the table's peak: about one window of slot records",
	"Replica.freeRequests":  "holds only records Replica.requests dropped and has not taken back, so with the table at most the table's peak: about the requests in flight",
	"Replica.slotBlock":     "the uncarved rest of the current block of slot records: fewer than recordBlock records, each taken once by slot",
	"Replica.shareBlock":    "the uncarved rest of the current block of view records' share storage: room for fewer than recordBlock records' shares, each carved once by addShare",
	"Replica.reqBlock":      "the uncarved rest of the current block of request records: fewer than recordBlock records, each taken once by request",
	"Replica.subsRest":      "the uncarved rest of the current block of sub-requests: fewer than subsBlock, each carved once by subs",
	"Replica.enc":           "one encode buffer, overwritten by every message the replica broadcasts and every request it digests: at most twice the largest of them (a PREPARE or a COMMIT, bounded by the channel's MsgCap)",
	"Replica.deferredResp":  "pruneBelow: one window past the stable checkpoint unless the ticket is still parked; entry deleted when the lock releases",
	"Replica.proposeQ":      "drained by pumpProposals; holds only requests whose echo round completed, so at most what live clients have in flight",
	"Replica.freshScratch":  "scratch of takeProposal: at most one PREPARE's requests (MsgCap bytes)",
	"Replica.pinnedReads":   "<= pinnedReadCap, drained as execution reaches each pin",
	"Replica.joinAnswers":   "fixed: at most n entries, reset when the sync point is adopted",
	"Replica.peerJoinNonce": "fixed: at most n entries",
	"Replica.views":         "setView: views below the current one; admits opens one only for a view this replica leads, from the current one to the horizon (highestView + 1): n x n share sets of at most n shares, f+1 certified states until the view starts, one bool",

	"slotState.views": "lives with the slot record, emptied when Replica.slots drops it and kept for its next slot; one record per view the slot saw, and admits opens none for a view above the horizon (highestView + 1)",
	"slotView.shares": "lives with its view record, emptied with it; at most n shares, one per signer",

	"execEntry.res": "one buffer per client record: a copy of the client's latest result, overwritten by its next one, dropped with the record",

	"cpState.shares":   "released once the checkpoint is stable (pruneBelow); at most n shares, one per signer, held, being verified, verified or found invalid (a CHECKPOINT's signatures join as relayed shares under the same bound)",
	"cpState.snapshot": "released one window below the stable checkpoint (pruneBelow)",

	"readQueue.replies": "the read core's: <= readBacklogCap ordered reads (past it one runs on main), and a fast read only once it has spent every read it was charged; the waiting fast reads: <= readBacklogCap (a read past it is refused); each dropped when its core sends it or starts it, the backing array compacted before it grows",
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
	for _, rec := range []any{Replica{}, slotState{}, slotView{}, reqState{}, clientState{}, cpState{}, readQueue{}} {
		walk(reflect.TypeOf(rec))
	}
	for name := range retention {
		if !seen[name] {
			t.Errorf("retention table entry %s names no map or slice field", name)
		}
	}
}

// TestFastPathSlotAllocatesNothingOnceWarm: a slot that collects both
// unanimous vote sets, sends both promises and decides within one view costs
// no allocation once the free list is warm — its record, and the storage of
// its one view record, are what a pruned slot left behind. A slot that
// outlives a view change keeps one record per view, each judged on its own.
func TestFastPathSlotAllocatesNothingOnceWarm(t *testing.T) {
	r := &Replica{
		cfg:   Config{Replicas: []ids.ID{0, 1, 2}, Window: 16},
		slots: make(table[Slot, slotState]),
	}
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	var sv *slotView
	// AllocsPerRun's warm-up run makes the one record; every later slot
	// reuses it.
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range r.cfg.Replicas {
			var bit uint64
			sv, bit = r.voteSlot(p, 0, 7)
			sv.willCertify |= bit
			sv.willCommit |= bit
		}
		sv.sent |= sentWillCertify | sentWillCommit
		ss := r.slots[7]
		ss.decided, ss.req = true, req
		if sv.willCommit != r.fullVote() || len(ss.views) != 1 || sv != &ss.views[0] {
			t.Fatalf("three votes in view 0: %+v", ss)
		}
		if !ss.owesCommit() || ss.sent(0, sentCommit) {
			t.Fatal("a WILL_COMMIT without its COMMIT is an outstanding promise")
		}
		r.dropSlot(7, ss)
	})
	if allocs != 0 || len(r.freeSlots) != 1 {
		t.Fatalf("fast-path slot: %.0f allocations, %d records kept", allocs, len(r.freeSlots))
	}
	ss := r.slot(7)
	// A second view gets a record of its own; each view's promise is judged
	// on its own bits.
	ss.in(0).sent |= sentCommit
	ss.in(3).sent |= sentWillCommit
	if len(ss.views) != 2 || !ss.sent(3, sentWillCommit) || ss.sent(3, sentCommit) || !ss.sent(0, sentCommit) || !ss.owesCommit() {
		t.Fatalf("per-view sent bits: %+v", ss.views)
	}
	ss.in(3).sent |= sentCommit
	if ss.owesCommit() {
		t.Fatalf("every promise honoured, still owing: %+v", ss.views)
	}
	var dg [xcrypto.DigestLen]byte
	ss.in(3).shares.Add(1, dg, xcrypto.Signature("sig"))
	ss.in(3).shares.Add(1, dg, xcrypto.Signature("sig"))
	if sh := ss.in(3).shares; len(ss.views) != 2 || len(sh) != 1 || !sh.Has(1, dg, xcrypto.Signature("sig")) ||
		sh.Has(1, dg, xcrypto.Signature("gis")) || sh.Has(2, dg, xcrypto.Signature("sig")) || ss.find(4) != nil || ss.in(0).shares != nil {
		t.Fatalf("verified-share record: %+v", ss.views)
	}
}

// TestByzantineSignerCannotGrowShareRecords: every share collector takes one
// share per signer, so validly signed floods by one replica's key (the byz
// wrapper rewrites frames and holds no keys; this needs the white box) leave
// one entry behind, cost one verification where the handler verifies inline,
// and certify nothing; a pool-verified collector that lacks no share beyond
// the one being verified holds the flood's one share unverified. And one
// admission rule decides which collectors a share may open (admits): floods
// over a thousand views or sequence numbers each leave the slot's view
// records, Replica.views and Replica.cps within its bound, and every share
// it refuses costs no verification.
func TestByzantineSignerCannotGrowShareRecords(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	signing := sim.NewProc(rig.eng, "signing")
	sign := func(id ids.ID, st xcrypto.Statement) xcrypto.Signature {
		return rig.reg.Signer(id).Sign(signing, st.Bytes())
	}
	digest := func(i int) [xcrypto.DigestLen]byte { return xcrypto.DigestNoCharge([]byte{byte(i)}) }
	const oneVerify = sim.Time(latmodel.VerifyCost + latmodel.CryptoDispatchCost)
	// free is when the main process would start new work: charges add to it.
	free := func() sim.Time { return max(r.proc.BusyUntil(), rig.eng.Now()) }
	pool := func() sim.Time { return max(r.bgProc.BusyUntil(), rig.eng.Now()) }
	const flood = 1000

	// 64 CERTIFY shares by replica 2 over 64 digests of (view 0, slot 5).
	busy := free()
	for i := 0; i < 64; i++ {
		r.onCertify(2, 0, 5, digest(i), sign(2, xcrypto.Certify(0, 5, digest(i))))
	}
	if ss := r.slots[5]; ss == nil || len(ss.views) != 1 || len(ss.views[0].shares) != 1 ||
		!ss.views[0].shares.Has(2, digest(0), sign(2, xcrypto.Certify(0, 5, digest(0)))) {
		t.Fatalf("slot record after 64 shares by one signer: %+v", r.slots[5])
	}
	if got := r.proc.BusyUntil() - busy; got != oneVerify {
		t.Fatalf("64 shares by one signer charged %v, want one verification (%v)", got, oneVerify)
	}

	// CERTIFY shares by replica 2 over a thousand views of slot 5, on the aux
	// ring and inside COMMIT certificates: the slot keeps a record for views
	// 0 and 1 only (nothing is sealed, so the horizon is view 1), and the
	// refused shares on the aux ring cost nothing.
	if h := r.highestView() + 1; h != 1 {
		t.Fatalf("horizon with nothing sealed: %d, want 1", h)
	}
	dg := digest(0)
	busy = free()
	for v := View(1); v <= flood; v++ {
		r.onCertify(2, v, 5, dg, sign(2, xcrypto.Certify(uint64(v), 5, dg)))
	}
	if got := r.proc.BusyUntil() - busy; got != oneVerify {
		t.Fatalf("CERTIFY shares over %d views charged %v, want one verification (%v)", flood, got, oneVerify)
	}
	for v := View(0); v <= flood; v++ {
		if !r.verifyCertifySig(v, 5, dg, 1, sign(1, xcrypto.Certify(uint64(v), 5, dg))) {
			t.Fatalf("a valid COMMIT signature of view %d refused", v)
		}
	}
	if ss := r.slots[5]; len(ss.views) != 2 || ss.find(0) == nil || ss.find(1) == nil {
		t.Fatalf("slot 5 after CERTIFY shares over %d views: %d view records, want 2", flood, len(ss.views))
	}
	rig.eng.RunUntil(free()) // the COMMIT signatures were verified on the main process

	// Two CERTIFY_CHECKPOINT shares over different digests are not f+1 over
	// anything: no certificate to verify on the main process.
	const seq = Slot(32) // the first checkpoint of the rig's window; nothing executed
	dgA, dgB := digest(100), digest(101)
	busy = r.proc.BusyUntil()
	r.onCertifyCheckpoint(1, seq, dgA, sign(1, xcrypto.CertifyCheckpoint(uint64(seq), dgA)))
	r.onCertifyCheckpoint(2, seq, dgB, sign(2, xcrypto.CertifyCheckpoint(uint64(seq), dgB)))
	rig.eng.RunFor(sim.Millisecond)
	if r.proc.BusyUntil() != busy || r.chkpt.Seq != 0 || len(r.cps[seq].shares) != 2 {
		t.Fatalf("two shares over two digests: main process charged %v, checkpoint %d, record %+v",
			r.proc.BusyUntil()-busy, r.chkpt.Seq, r.cps[seq])
	}
	// A second share over the first digest completes it.
	r.onCertifyCheckpoint(0, seq, dgA, sign(0, xcrypto.CertifyCheckpoint(uint64(seq), dgA)))
	rig.eng.RunFor(sim.Millisecond)
	if sigs := maps.Collect(r.chkpt.Sigs.All()); r.chkpt.Seq != seq || r.chkpt.StateDigest != dgA || len(sigs) != 2 || sigs[2] != nil {
		t.Fatalf("f+1 shares over one digest: stable checkpoint %+v", r.chkpt)
	}

	// An open collector that lacks no share but the one being verified holds
	// what else arrives, one share per signer: 64 CERTIFY_CHECKPOINT shares by
	// replica 2 over 64 digests leave one held share and cost the pool nothing.
	const next = seq + 32
	busy = pool()
	r.onCertifyCheckpoint(0, next, dgA, sign(0, xcrypto.CertifyCheckpoint(uint64(next), dgA)))
	r.onCertifyCheckpoint(1, next, dgA, sign(1, xcrypto.CertifyCheckpoint(uint64(next), dgA)))
	for i := 0; i < 64; i++ {
		r.onCertifyCheckpoint(2, next, digest(i), sign(2, xcrypto.CertifyCheckpoint(uint64(next), digest(i))))
	}
	if got := r.bgProc.BusyUntil() - busy; len(r.cps[next].shares) != 3 || got != oneVerify {
		t.Fatalf("64 shares by one signer to a collector verifying its last share: %d shares held, pool charged %v (want %v)",
			len(r.cps[next].shares), got, oneVerify)
	}

	// CERTIFY_CHECKPOINT shares and a CHECKPOINT's signatures by replica 2
	// over a thousand sequence numbers beyond the next two windows open no
	// record and cost nothing; the highest share waits for the stable
	// checkpoint to move, and the CHECKPOINTs go to the main process.
	records, far := len(r.cps), r.chkpt.Seq+2*Slot(r.cfg.Window)
	busy, pooled := free(), pool()
	for i := Slot(1); i <= flood; i++ {
		r.onCertifyCheckpoint(2, far+i, dgA, sign(2, xcrypto.CertifyCheckpoint(uint64(far+i), dgA)))
		cp := Checkpoint{Seq: far + i, StateDigest: dgA, Sigs: certOf(map[ids.ID]xcrypto.Signature{2: sign(2, xcrypto.CertifyCheckpoint(uint64(far+i), dgA))})}
		if r.awaitCheckpointCert(r.state[2], &cp) {
			t.Fatalf("a CHECKPOINT at %d beyond the window waits for the pool", cp.Seq)
		}
	}
	if len(r.cps) != records || r.proc.BusyUntil() > busy || r.bgProc.BusyUntil() > pooled {
		t.Fatalf("checkpoint shares over %d far sequence numbers: %d records (was %d), main process charged %v, pool %v",
			flood, len(r.cps), records, r.proc.BusyUntil()-busy, r.bgProc.BusyUntil()-pooled)
	}
	if h := r.state[2].held; h.seq != far+flood {
		t.Fatalf("held share at %d, want the highest, %d", h.seq, far+flood)
	}

	// SEAL_VIEW(2) by replica 1 moves the horizon to view 3, which replica 0
	// leads: 8 CERTIFY_VC shares by replica 2 over 8 states of replica 1 for
	// it cost one verification.
	if !r.accepts(1, sealFrame(2)) || r.highestView()+1 != 3 {
		t.Fatalf("SEAL_VIEW(2) delivered: horizon %d, want 3", r.highestView()+1)
	}
	busy = free()
	for i := 0; i < 8; i++ {
		state := []byte{byte(i)}
		r.onCertifyVC(2, 3, 1, state, sign(2, xcrypto.CertifyViewChange(3, 1, state)))
	}
	if rec := r.views[3]; len(r.views) != 1 || len(rec.shares) != 1 || len(rec.shares[1].shares) != 1 || rec.shares[1].certified || rec.pending != nil {
		t.Fatalf("view-change record after 8 states by one signer: %+v", rec)
	}
	if got := r.proc.BusyUntil() - busy; got != oneVerify {
		t.Fatalf("8 states by one signer charged %v, want one verification (%v)", got, oneVerify)
	}
	// A thousand more views replica 0 would lead, all above the horizon,
	// open nothing and cost nothing.
	busy = free()
	state := []byte{0}
	for v := View(6); v < 6+3*flood; v += 3 {
		r.onCertifyVC(2, v, 1, state, sign(2, xcrypto.CertifyViewChange(uint64(v), 1, state)))
	}
	if n, lowest := r.ViewRecords(); n != 1 || lowest != 3 || r.proc.BusyUntil() > busy {
		t.Fatalf("CERTIFY_VC shares over %d views: %d view records from view %d, main process charged %v", flood, n, lowest, r.proc.BusyUntil()-busy)
	}
}

// TestStaleDeferredTargetAgesOut: a deferred response target whose ticket is
// no longer parked (a state transfer replaced the app's wait queue) ages out
// one window past its slot, while one whose ticket is still parked is kept
// however old it is.
func TestStaleDeferredTargetAgesOut(t *testing.T) {
	rig := newAppRig(t, app.NewRKV)
	defer rig.stop()
	r := rig.reps[0]
	sm := r.cfg.App.(*app.RKV)
	key := []byte("locked")
	if res := sm.Apply(app.EncodeTxnPrepare(nil, 1, 0, app.EncodeRMSet(app.Pair{Key: key, Val: []byte("t")}))); len(res) != 1 || res[0] != app.StatusOK {
		t.Fatalf("prepare: %v", res)
	}
	if res := sm.Apply(app.EncodeRSet(key, []byte("w"))); res != nil {
		t.Fatalf("a write to a locked key returned %v, want parked", res)
	}
	live := sm.TakeParkedTicket()
	const stale, at = 1 << 40, Slot(3)
	r.deferredResp[live] = deferredTarget{client: 200, num: 1, slot: at}
	r.deferredResp[stale] = deferredTarget{client: 201, num: 1, slot: at}
	horizon := at + Slot(r.cfg.Window)
	r.pruneBelow(horizon)
	if _, ok := r.deferredResp[stale]; !ok {
		t.Fatal("a stale target was dropped at one window past its slot, not beyond")
	}
	r.pruneBelow(horizon + 1)
	if _, ok := r.deferredResp[stale]; ok {
		t.Error("a stale target outlived one window past its slot")
	}
	if _, ok := r.deferredResp[live]; !ok {
		t.Error("a still-parked target aged out")
	}
}
