package consensus

import (
	"slices"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file holds what a replica remembers — three tables, keyed by slot,
// by request digest and by client, plus one record per checkpoint sequence
// number — and the one function that forgets: pruneBelow, run at every
// stable checkpoint, is the memory bound of the protocol (finite window x
// finite state). Each record has one owner here and one retention rule
// there; replica.go, rpc.go, viewchange.go and checkpoint.go keep the
// handlers that fill them. A fifth table, keyed by view, holds what a
// leader-elect collects for a view change; entering a view is what forgets
// there (setView).
//
// The slot and request tables see a new key per operation, so a record
// the table forgets is recycled (dropSlot, dropIfDead) and a new one is
// carved from a block of recordBlock records (slot, request), as
// ARCHITECTURE.md's host allocation section describes. A record is its own
// timer's sim.Handler, through a pointer to its replica that survives reuse.

// table is a keyed set of records created on first use.
type table[K comparable, V any] map[K]*V

// at returns the record for k, creating it if absent.
func (t table[K, V]) at(k K) *V {
	v, ok := t[k]
	if !ok {
		v = new(V)
		t[k] = v
	}
	return v
}

// recordBlock is how many slot or request records one allocation makes.
const recordBlock = 16

// ---------------------------------------------------------------------
// Per slot.
// ---------------------------------------------------------------------

// sent-flag bits: what this replica itself sent for a slot in one view.
const (
	sentWillCertify uint8 = 1 << iota
	sentWillCommit
	sentCertify
	sentCommit
)

// slotState is this replica's local progress on one slot. A slot that
// decides on the fast path within one view costs this one record and no
// map: its one view record sits in the same allocation (slot), and vote
// sets are bitmasks indexed by replica position (n = 2f+1 <= 64). The table
// stays a map keyed by Slot rather than a Window-sized ring because sealTo
// certifies prepares of peers whose window is ahead of ours.
type slotState struct {
	// views holds one record per view the slot saw (in, find). A slot
	// outlives a view change with its earlier views' records: a WILL_COMMIT
	// promise of an old view is still owed its COMMIT (owesCommit).
	views []slotView

	// fallback is the slow-path deadline armed when this replica endorsed
	// the PREPARE of view fallbackView on the fast path (slowPathDue).
	fallback     sim.Timer
	fallbackView View
	waitingReq   *Prepare // prepare delivered but client request not yet seen

	// The decision. A decided slot is kept until it is both covered by a
	// stable checkpoint and applied.
	decided bool
	req     Request

	// The record's key, and its replica: the record is fallback's Handler.
	slot Slot
	r    *Replica
}

// Fire is fallback's expiry.
func (ss *slotState) Fire() { ss.r.slowPathDue(ss) }

// slotView is what this replica holds about one slot in one view v: the
// fast-path vote sets, the four sent* bits of what it sent itself, and the
// CERTIFY shares. Votes are recorded for the replica's current view only
// (voteSlot), which never decreases, so only the latest record's sets grow.
type slotView struct {
	v           View
	willCertify uint64
	willCommit  uint64
	sent        uint8

	// shares holds the CERTIFY shares this replica verified (on arrival, or
	// inside a peer's COMMIT certificate) or produced itself. It is what
	// this replica's own COMMIT is built from and what spares a certificate
	// made of shares already seen any further public-key operation.
	shares digestShares
}

// slotRec is a slot record with the storage of its first view record.
type slotRec struct {
	slotState
	first [1]slotView
}

// slot returns slot s's record, creating it if absent. A new record is
// carved, with its first view record, from the replica's block of slot
// records.
func (r *Replica) slot(s Slot) *slotState {
	ss := r.slots[s]
	if ss == nil {
		if ss = r.freeSlots.Get(); ss == nil {
			fresh := &wire.Carve(&r.slotBlock, 1, recordBlock)[0]
			fresh.views, fresh.r = fresh.first[:0], r
			ss = &fresh.slotState
		}
		ss.slot = s
		r.slots[s] = ss
	}
	return ss
}

// dropSlot forgets slot s's record and keeps it, its view records emptied
// but their share storage kept, for the next new slot.
func (r *Replica) dropSlot(s Slot, ss *slotState) {
	ss.fallback.Cancel()
	delete(r.slots, s)
	for i := range ss.views {
		shares := ss.views[i].shares
		clear(shares) // the signatures pin their frames
		ss.views[i] = slotView{shares: shares[:0]}
	}
	*ss = slotState{views: ss.views[:0], r: r}
	r.freeSlots.Put(ss)
}

// addShare adds a verified CERTIFY share to a view record's shares and
// returns how many they hold over dg. Shares without storage get it here,
// room for one share per replica carved from a block (a fast-path slot
// never needs any); a dropped view record keeps it for its next slot.
func (r *Replica) addShare(shares *digestShares, p ids.ID, dg [xcrypto.DigestLen]byte, sig xcrypto.Signature) int {
	if cap(*shares) == 0 {
		n := len(r.cfg.Replicas)
		*shares = wire.Carve(&r.shareBlock, n, recordBlock*n)[:0]
	}
	return shares.Add(p, dg, sig)
}

// settledShares returns the shares verified in COMMITs about slot s, below
// the stable checkpoint and without a record, in view v. They are kept
// until the next stable checkpoint, as the records such shares used to open
// were: a COMMIT sent again costs no second verification. nil when
// 2 x Window such (view, slot) pairs are kept already: the share is then
// verified and forgotten.
func (r *Replica) settledShares(v View, s Slot) *digestShares {
	k := [2]uint64{uint64(v), uint64(s)}
	if r.settled[k] == nil && len(r.settled) >= 2*r.cfg.Window {
		return nil
	}
	return r.settled.at(k)
}

// digestShares collects signature shares over a digest: CERTIFY shares over
// a request's, CERTIFY_CHECKPOINT shares over the application state's.
type digestShares = xcrypto.Shares[[xcrypto.DigestLen]byte]

// find returns the slot's record of view v, or nil if it has none.
func (ss *slotState) find(v View) *slotView {
	for i := range ss.views {
		if ss.views[i].v == v {
			return &ss.views[i]
		}
	}
	return nil
}

// in returns the slot's record of view v, made on first use in storage a
// dropped record left, if there is any. The pointer is good until the next
// call.
func (ss *slotState) in(v View) *slotView {
	if sv := ss.find(v); sv != nil {
		return sv
	}
	n := len(ss.views)
	if n == cap(ss.views) {
		old := ss.views
		ss.views = slices.Grow(ss.views, 1)
		clear(old) // the moved records' share storage now lives in the new array only
	}
	ss.views = ss.views[:n+1] // an emptied record keeps its share storage
	ss.views[n].v = v
	return &ss.views[n]
}

// isDecided reports whether this replica holds a decision for slot s.
func (r *Replica) isDecided(s Slot) bool {
	ss := r.slots[s]
	return ss != nil && ss.decided
}

// sent reports whether this replica sent what flag names for the slot in
// view v.
func (ss *slotState) sent(v View, flag uint8) bool {
	sv := ss.find(v)
	return sv != nil && sv.sent&flag != 0
}

// owesCommit reports whether this replica promised WILL_COMMIT for the slot
// in some view and has not broadcast that view's COMMIT yet: Algorithm 3
// lines 4-5 make it honour the promise before it may seal the view.
func (ss *slotState) owesCommit() bool {
	for i := range ss.views {
		if ss.views[i].sent&(sentWillCommit|sentCommit) == sentWillCommit {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Per request digest.
// ---------------------------------------------------------------------

// reqState is everything a replica tracks about one client request: the
// client's direct copy every replica holds until the request executes, and
// the leader's echo round and proposal dedup stub. The record lives as long
// as any of the three does (dropIfDead).
type reqState struct {
	// req is the copy received directly from the client, valid while held:
	// from arrival until the request executes.
	req  Request
	held bool

	// The leader's echo round (§5.4). echoes is the set of replicas known to
	// hold the request, one bit per replica position; it is non-zero exactly
	// while the round is open. echoTimer, armed when the leader holds the
	// request and the set is incomplete, bounds the wait. grace marks a set
	// that survived one stable checkpoint without a client copy behind it
	// (pruneBelow).
	echoes    uint64
	echoTimer sim.Timer
	grace     bool

	// proposed: this replica proposed the request in slot. The stub stops a
	// second proposal of the digest until a stable checkpoint covers slot
	// (bounded leader memory).
	proposed bool
	slot     Slot

	// r is the record's replica: the record is echoTimer's Handler.
	r *Replica
}

// Fire is echoTimer's expiry.
func (rs *reqState) Fire() { rs.r.echoTimedOut(rs) }

// request returns the record of request digest dg, creating it if absent,
// carved from the replica's block of request records.
func (r *Replica) request(dg [xcrypto.DigestLen]byte) *reqState {
	rs := r.requests[dg]
	if rs == nil {
		if rs = r.freeRequests.Get(); rs == nil {
			rs = &wire.Carve(&r.reqBlock, 1, recordBlock)[0]
			rs.r = r
		}
		r.requests[dg] = rs
	}
	return rs
}

// releaseBody drops the client copy (its execution is settled).
func (rs *reqState) releaseBody() { rs.req, rs.held = Request{}, false }

// closeEchoRound forgets the echo set and everything keyed like it.
func (rs *reqState) closeEchoRound() {
	rs.echoTimer.Cancel()
	rs.echoes, rs.grace = 0, false
}

// dropIfDead forgets dg's record once nothing in it is live, and keeps it
// for the next new digest. A record without echoes has no timer pending.
func (r *Replica) dropIfDead(dg [xcrypto.DigestLen]byte, rs *reqState) {
	if !rs.held && rs.echoes == 0 && !rs.proposed {
		delete(r.requests, dg)
		*rs = reqState{r: r}
		r.freeRequests.Put(rs)
	}
}

// ---------------------------------------------------------------------
// Per client.
// ---------------------------------------------------------------------

// clientState is what a replica remembers about one client: the
// exactly-once execution record every replica keeps, and — on the replica
// that proposed for it — the highest request number proposed.
type clientState struct {
	// execEntry is meaningful once ran: some request of the client executed
	// here. (The zero entry would read as "request 0 executed".)
	execEntry
	ran bool
	// proposedNum is the highest request number this replica proposed for
	// the client and proposedSlot the slot it went into, if proposedAny. The
	// mark feeds one diagnostic (LateProposals) and counts only while its
	// slot is at or above the stable checkpoint (proposedUpTo); execEntry
	// stays the exactly-once authority.
	proposedNum  uint64
	proposedSlot Slot
	proposedAny  bool
	// ticket is the wait-queue ticket of the latest request while it is
	// pending: its deferred target was made in the same slot, so the two
	// age together (pruneBelow).
	ticket uint64
}

// proposedUpTo reports whether this replica proposed, in a slot at or above
// the stable checkpoint seq, a request of the client numbered num or higher.
func (c *clientState) proposedUpTo(num uint64, seq Slot) bool {
	return c != nil && c.proposedAny && c.proposedSlot >= seq && num <= c.proposedNum
}

// execEntry is one client's exactly-once execution record: the highest
// executed request number with a copy of its result, and which of the
// execWindow numbers below it executed too. A high-water mark alone cannot
// tell a pipelined request's late first execution (it lost its echo round
// and was proposed after its successors) from its second one (a view change
// re-routed it as fresh work and the old slot decided anyway): the first
// must apply, the second must not.
type execEntry struct {
	num uint64
	// below has bit i set when request num-1-i executed.
	below uint64
	// res is the latest request's result, copied into one buffer the record
	// owns: the application's answer is only valid until its next Apply.
	// Empty (or nil) while that request is parked.
	res  []byte
	slot Slot // slot of the last executed request (aging horizon)
	// pending marks a request parked in the application's wait queue: it
	// is executed (dedup holds) but its result arrives at lock release.
	pending bool
	// parked marks a result that was produced at lock release (the request
	// crossed a transaction); retransmissions must re-send the same marker
	// so they land in the first execution's response class.
	parked bool
}

// execWindow is how far below a client's highest executed request number
// single executions are remembered. A request further behind than that is
// taken as executed: far beyond any pipeline depth, it can only be a replay.
const execWindow = 64

// has reports whether request n of this client executed.
func (e *execEntry) has(n uint64) bool {
	switch {
	case n >= e.num:
		return n == e.num
	case e.num-n > execWindow:
		return true
	}
	return e.below>>(e.num-n-1)&1 != 0
}

// executedAt returns the record with request n, executed in slot s, marked.
// A request above the high-water mark becomes the new one and copies res
// into the record's result buffer (pending: res is empty); one below it only
// sets its bit.
func (e execEntry) executedAt(n uint64, s Slot, res []byte, pending bool) execEntry {
	if n < e.num {
		if d := e.num - n; d <= execWindow {
			e.below |= 1 << (d - 1)
		}
		return e
	}
	below := uint64(0)
	if d := n - e.num; e.num > 0 && d <= execWindow {
		below = e.below<<d | 1<<(d-1) // Go shifts past the width to zero
	}
	return execEntry{num: n, below: below, res: append(e.res[:0], res...), slot: s, pending: pending}
}

// executedBy returns client id's record if the client's request num executed
// here (exactly, within execEntry's window: a lower number that has not
// executed while higher ones have is a pipelined request still on its way),
// nil otherwise.
func (r *Replica) executedBy(id ids.ID, num uint64) *clientState {
	if c := r.clients[id]; c != nil && c.ran && c.has(num) {
		return c
	}
	return nil
}

func (r *Replica) executed(id ids.ID, num uint64) bool { return r.executedBy(id, num) != nil }

// markExecuted records that the client's request num executed in slot s,
// keeping a copy of res (the application's answer, valid only until its next
// Apply).
func (c *clientState) markExecuted(num uint64, s Slot, res []byte, pending bool) {
	c.execEntry, c.ran = c.executedAt(num, s, res, pending), true
}

// deferredTarget is the response owed for one request parked in the
// application's wait queue (Replica.deferredResp, keyed by ticket); it ages
// with the client table.
type deferredTarget struct {
	client ids.ID
	num    uint64
	slot   Slot // slot the request parked in (aging horizon)
}

// ---------------------------------------------------------------------
// Per checkpoint sequence number.
// ---------------------------------------------------------------------

// cpState is what this replica holds about one checkpoint sequence number,
// each part with its own horizon (pruneBelow).
type cpState struct {
	// Certification in progress: our own state digest once execution
	// reached the sequence number (mine; read only while the sequence number
	// is above the stable checkpoint), and the CERTIFY_CHECKPOINT shares
	// collected toward the certificate.
	mine   bool
	digest [xcrypto.DigestLen]byte
	shares digestShares
	// verified caches the state digest of a certificate whose f+1
	// signatures checked out.
	verified   bool
	verifiedDg [xcrypto.DigestLen]byte
	// snapshot is the application state at the sequence number, kept to
	// serve state transfers: it was taken when execution reached the
	// sequence number, or adopted there from a state transfer.
	hasSnapshot bool
	snapshot    []byte
}

func (c *cpState) keepSnapshot(snap []byte) { c.snapshot, c.hasSnapshot = snap, true }

// ---------------------------------------------------------------------
// Per view this replica is elected to lead.
// ---------------------------------------------------------------------

// viewRec is what this replica holds about one view it is elected to lead
// (onCertifyVC makes no record for any other view): the CERTIFY_VC shares by
// the replica they are about, the f+1 certified states while they wait for
// this replica's own seal of the view, and whether its NEW_VIEW went out.
type viewRec struct {
	shares  table[ids.ID, vcCert]
	pending []ReplicaCert
	opened  bool
}

// vcCert is what a leader-elect holds about one replica's state for one
// view: the CERTIFY_VC shares, each over the state bytes its signer saw, and
// the certificate (signatures aside) of the state f+1 of them agree on once
// there is one.
type vcCert struct {
	shares    xcrypto.Shares[string]
	cert      ReplicaCert
	certified bool
}

// viewOpened reports whether this replica broadcast view v's NEW_VIEW.
func (r *Replica) viewOpened(v View) bool {
	rec := r.views[v]
	return rec != nil && rec.opened
}

// ---------------------------------------------------------------------
// The admission rule and the prune rules.
// ---------------------------------------------------------------------

// shareKind names the record a peer's share would open.
type shareKind uint8

const (
	certifyShare    shareKind = iota // CERTIFY (v, s): slot s's record of view v
	commitShare                      // a COMMIT's CERTIFY signature (v, s): the same record
	viewShare                        // CERTIFY_VC (v): the record of a view this replica leads
	checkpointShare                  // CERTIFY_CHECKPOINT or a CHECKPOINT's signature (s): cpState s
)

// admits is the one admission rule of the share collectors, pruneBelow's
// counterpart: whether a share of kind k about view v and sequence number s
// may open a record or join one. No view above the horizon, highestView + 1,
// is admitted. A CERTIFY's slot must be in the window; a COMMIT's slot, in
// its sender's window (validCommit checks that first), must not be below the
// stable checkpoint, whose records pruneBelow forgot (verifyCertifySig keeps
// such a share in Replica.settled instead); a view-change share's view
// must be one this replica leads, at or above its own and not opened yet; a
// checkpoint share's sequence number must lie in the next two windows. So
// whatever a Byzantine key signs, a slot keeps at most one view record per
// view up to the horizon, Replica.views one record per view this replica
// leads from its own to the horizon, and Replica.cps at most two windows of
// records above the stable checkpoint. Each site asks before it verifies
// anything: a refused share costs no verification. The horizon moves only
// when this replica changes view or delivers a SEAL_VIEW.
func (r *Replica) admits(k shareKind, v View, s Slot) bool {
	switch k {
	case certifyShare:
		return r.inWindow(s) && v <= r.highestView()+1
	case commitShare:
		return r.chkpt.Seq <= s && v <= r.highestView()+1
	case viewShare:
		return r.cfg.leaderOf(v) == r.cfg.Self && r.view <= v && v <= r.highestView()+1 && !r.viewOpened(v)
	default:
		return r.chkpt.Seq < s && s <= r.chkpt.Seq+2*Slot(r.cfg.Window)
	}
}

// highestView is the highest view this replica reached, is sealing into or
// saw any replica seal.
func (r *Replica) highestView() View {
	h := max(r.view, r.sealTarget)
	for _, q := range r.cfg.Replicas {
		h = max(h, r.state[q].sealedView)
	}
	return h
}

// pruneBelow discards the state a stable checkpoint at seq covers. The
// walks that recycle records or clear parts of them in place go in key order
// (the determinism lint's rule for anything but pure deletes).
func (r *Replica) pruneBelow(seq Slot) {
	window := Slot(r.cfg.Window)

	// Slots: everything below the checkpoint, except a slot decided but not
	// yet applied (the checkpoint arrived ahead of execution), which stays
	// until execution passes it.
	for _, s := range sortedKeys(r.slots) {
		if ss := r.slots[s]; s < seq && !(ss.decided && s >= r.lastApplied) {
			r.dropSlot(s, ss)
		}
	}

	clear(r.settled) // their slots are pruned: the records they stand in for would go now

	// Checkpoint records: three horizons, the record going with the last.
	for _, s := range sortedKeys(r.cps) {
		c := r.cps[s]
		if s <= seq {
			c.shares = nil // certified or overtaken: the shares are spent
		}
		if s+window < seq {
			c.snapshot, c.hasSnapshot = nil, false // transfers: one window
		}
		if s+2*window < seq {
			delete(r.cps, s) // the verified-certificate cache: two windows
		}
	}

	// Clients. An exactly-once record goes once its client has been idle for
	// a full window beyond the checkpoint: with client churn in the millions
	// the table would otherwise hold one record per client ever seen. The
	// one-window grace keeps dedup authoritative across every in-window
	// re-proposal (view changes, retransmissions); only a duplicate delayed
	// past two checkpoint intervals could re-execute. A deferred response
	// target, and the record of a client whose latest request is still
	// parked, are exempt however old: that client was never answered and will
	// retransmit, and a forgotten record would re-execute a non-idempotent
	// request at release. A target whose ticket is no longer parked (a state
	// transfer replaced the app's queue) ages out normally. The proposal
	// mark needs no rule of its own: every proposal made before this
	// checkpoint went into a slot below it.
	deferring, _ := r.cfg.App.(app.Deferring)
	parked := func(tk uint64) bool { return deferring != nil && deferring.Parked(tk) }
	for tk, tgt := range r.deferredResp {
		if tgt.slot+window < seq && !parked(tk) {
			delete(r.deferredResp, tk)
		}
	}
	for id, c := range r.clients {
		if c.slot+window < seq && !(c.pending && parked(c.ticket)) {
			delete(r.clients, id)
		}
	}

	// Requests (after the clients: "executed" is read off the aged table).
	for _, dg := range sortedDigests(r.requests) {
		rs := r.requests[dg]
		// A digest proposed below the checkpoint can never be proposed again
		// (its slot is settled), so its dedup stub is dead weight.
		if rs.proposed && rs.slot < seq {
			rs.proposed = false
		}
		// A copy whose execution is settled is no longer needed for
		// endorsement or re-proposal (applyOne normally released it).
		if rs.held && r.executed(rs.req.Client, rs.req.Num) {
			rs.releaseBody()
		}
		// Echo sets. One whose digest was proposed is settled (finishEcho
		// normally closes it; this catches view-change leftovers). One with
		// a client copy behind it is live: its request is completing or
		// waiting on its armed EchoTimeout. One without is either a
		// Byzantine client echo-spraying digests it never sends — which must
		// not grow leader memory — or a real request whose echoes outran its
		// direct copy. The two are indistinguishable now, so an unbacked set
		// gets one full checkpoint window of grace: a real copy arrives well
		// within it (keeping the request off the slow EchoTimeout path,
		// which proposes out of client order), while garbage still dies at
		// the next stable checkpoint.
		switch {
		case rs.echoes == 0:
		case rs.proposed:
			rs.closeEchoRound()
		case rs.held:
		case !rs.grace:
			rs.grace = true
		default:
			rs.closeEchoRound()
		}
		r.dropIfDead(dg, rs)
	}
	r.maybeSeal()
}
