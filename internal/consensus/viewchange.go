package consensus

import (
	"bytes"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file implements the view change (paper §5.3, Algorithm 3), the
// Byzantine message checks (Algorithm 5, one per tag, each run by
// onConsensusMsg between decoding a delivery and applying it), and the
// CTBcast summary capture/apply hooks (Algorithm 4's state content).
//
// Three engineering details beyond the pseudocode:
//
//   - Exponential backoff: the suspicion timeout doubles with every view
//     change that fails to restore progress (a complete view change costs
//     around a millisecond of signature work, so a fixed microsecond-scale
//     timeout would preempt itself forever).
//   - View joining: a replica that observes f+1 distinct replicas sealing
//     a higher view joins it, keeping timers loosely synchronized.
//   - Seal-before-speak: every replica broadcasts SEAL_VIEW(v) on its own
//     CTBcast channel before sending any view-v message, because the
//     Byzantine checks validate each replica's messages against the view
//     that replica itself declared in FIFO order.

// ---------------------------------------------------------------------
// Leader suspicion with exponential backoff.
// ---------------------------------------------------------------------

func (r *Replica) suspicionTimeout() sim.Duration {
	return r.cfg.ViewChangeTimeout << min(r.vcStreak, 8)
}

// armProgressTimer (re)arms the leader-suspicion timer while there is
// undecided work in flight.
func (r *Replica) armProgressTimer() {
	if r.observing() {
		return // an observing joiner never drives view changes
	}
	// The O(1) test first: under load the timer is almost always pending,
	// and this runs on every client request, endorsement and execution.
	if r.progressTimer.Pending() || !r.hasUndecidedWork() {
		return
	}
	r.progressTimer = r.proc.After(r.suspicionTimeout(), r.suspect)
}

// onSuspicionTimeout is the progress timer's callback (Replica.suspect): the
// leader left work undecided for a whole timeout, so move to the next view.
func (r *Replica) onSuspicionTimeout() {
	if !r.hasUndecidedWork() {
		return
	}
	r.ViewChanges++
	r.vcStreak++
	r.changeView()
	r.armProgressTimer()
}

func (r *Replica) resetProgressTimer() {
	r.progressTimer.Cancel()
	r.armProgressTimer()
}

// hasUndecidedWork reports whether this replica is waiting on the leader:
// a held client request that has not executed (an executed one is no
// evidence of a stall), or a slot the leader prepared that has not decided.
func (r *Replica) hasUndecidedWork() bool {
	for _, rs := range r.requests {
		if rs.held && !r.executed(rs.req.Client, rs.req.Num) {
			return true
		}
	}
	// Prepared-but-undecided slots also count (the leader proposed but the
	// protocol stalled).
	for s, ss := range r.slots {
		if !ss.decided && s >= r.chkpt.Seq && r.hasPrepare(s) {
			return true
		}
	}
	return false
}

func (r *Replica) hasPrepare(s Slot) bool {
	for _, q := range r.cfg.Replicas {
		if _, ok := r.state[q].prepares[s]; ok {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Sealing views (Algorithm 3 lines 3-6).
// ---------------------------------------------------------------------

func (r *Replica) isSealing() bool { return r.sealTarget > r.view }

// changeView targets the next view — or jumps straight to the highest
// view any peer has declared, if that is further. Views can diverge by
// more than one during an asynchronous period (each replica's suspicion
// timer advances it unilaterally), and joinView's f+1-sealers rule cannot
// re-converge a two-replica active set from unequal views: each side
// advances one view per backed-off timeout, so a laggard never catches a
// leader moving at the same capped rate. Jumping on our own timeout is
// the PBFT catch-up analog and is safe — a seal only promises silence in
// lower views; decisions still need f+1 certificates in the new view. A
// Byzantine peer advertising an absurd seal can at worst drag every
// correct replica to the same high view number, where they converge.
func (r *Replica) changeView() {
	if r.isSealing() {
		return // a seal is already in flight; the backoff timer retries
	}
	r.sealTo(max(r.view+1, r.highestView()))
}

// joinView targets a specific higher view (observed via f+1 seals or a
// NEW_VIEW message).
func (r *Replica) joinView(v View) {
	if v <= r.view || v <= r.sealTarget {
		return
	}
	r.sealTo(v)
}

// sealTo honours fast-path promises, then seals into view v.
func (r *Replica) sealTo(v View) {
	r.sealTarget = v
	// Lines 4-5: every WILL_COMMIT promise must be backed by a COMMIT (or
	// a covering checkpoint) before SEAL_VIEW. Certify every slot with a
	// delivered, uncommitted prepare — from ANY view — so that peers'
	// promises can complete too: a promise for (v, s) implies every
	// correct replica delivered PREPARE(v, s), so each of them certifying
	// at seal time guarantees the f+1 shares PΣ needs, even when views
	// diverged transiently.
	for _, p := range r.cfg.Replicas {
		for _, s := range sortedKeys(r.state[p].prepares) {
			if pr := r.state[p].prepares[s]; s >= r.chkpt.Seq && !r.slot(s).sent(pr.View, sentCommit) {
				r.sendCertify(pr.View, s)
			}
		}
	}
	r.maybeSeal()
}

// setView enters view v and drops the view-change record of every view
// below it: onCertifyVC ignores shares for a view below the current one,
// and maybeSeal and pumpProposals read the current view's record only.
func (r *Replica) setView(v View) {
	r.view = v
	for old := range r.views {
		if old < v {
			delete(r.views, old)
		}
	}
}

// maybeSeal broadcasts SEAL_VIEW once every promise is honoured.
func (r *Replica) maybeSeal() {
	if !r.isSealing() || r.observing() {
		return
	}
	// Lines 4-5: a WILL_COMMIT promise must be backed by this replica's
	// COMMIT or covered by a checkpoint first.
	for s, ss := range r.slots {
		if s >= r.chkpt.Seq && ss.owesCommit() {
			return // still waiting for the certificate
		}
	}
	v := r.sealTarget
	r.sealTarget = 0
	r.setView(v)
	r.fastPathLive = false // until a slot of this view decides by unanimity
	w := wire.NewWriter(16)
	w.U8(tagSealView)
	w.U64(uint64(v))
	r.groups[r.cfg.Self].Broadcast(w.Finish())
	// If we are the new leader and the certificate set is already
	// complete, start the view now that we have declared it.
	if rec := r.views[v]; rec != nil && rec.pending != nil {
		r.startView(v, rec) // which takes the certificates: a view starts once
	}
	r.reprocessPrepares()
	// Restart the suspicion window: the new view's leader deserves a full
	// (backed-off) timeout before being abandoned in turn.
	r.resetProgressTimer()
}

// onSealView implements lines 8-11: record the seal, certify the sealer's
// state toward the new leader, and join views the quorum is moving to.
func (r *Replica) onSealView(p ids.ID, st *replicaState, v View) {
	if v <= st.view {
		// Not a view advance: a correct replica only re-declares a view it
		// already held when resuming after a cold restart (its reborn
		// channel must re-state the view before anything else). Ignore —
		// and in particular do NOT clear newViewUsed, whose strict-increase
		// coupling is what makes a second NEW_VIEW in the same view
		// Byzantine.
		return
	}
	st.sealedView = v
	st.view = v
	st.newViewUsed = false
	if r.observing() {
		// Passive view tracking while rejoining: record the seal and follow
		// the quorum's view, but sign nothing (an amnesiac CertifyVC could
		// omit promises this replica made before it crashed) and broadcast
		// no seal of our own.
		if v > r.view && r.quorumSealed(v) {
			r.setView(v)
		}
		return
	}
	// Certify p's state as this replica has delivered it (st.view is v now).
	stateBytes := r.captureState(p)
	stmt := xcrypto.CertifyViewChange(uint64(v), p, stateBytes)
	sig := r.signer.Sign(r.proc, stmt.Bytes())
	w := wire.NewWriter(64 + len(stateBytes))
	w.U8(tagCertifyVC)
	w.U64(uint64(v))
	w.I64(int64(p))
	w.Bytes(stateBytes)
	w.Bytes(sig)
	r.rt.Send(r.cfg.leaderOf(v), router.ChanDirect, w.Finish())

	if v > r.view && v > r.sealTarget && r.quorumSealed(v) {
		r.joinView(v)
	}
}

// quorumSealed reports whether f+1 distinct replicas sealed view v or a
// later one: the quorum is moving there.
func (r *Replica) quorumSealed(v View) bool {
	sealers := 0
	for _, q := range r.cfg.Replicas {
		if r.state[q].sealedView >= v {
			sealers++
		}
	}
	return sealers >= r.cfg.f()+1
}

// reprocessPrepares re-endorses prepares of the current view that arrived
// while this replica was still sealing.
func (r *Replica) reprocessPrepares() {
	leader := r.cfg.leaderOf(r.view)
	for _, s := range sortedKeys(r.state[leader].prepares) {
		pr := r.state[leader].prepares[s]
		if pr.View != r.view || !r.inWindow(s) {
			continue
		}
		if r.isDecided(s) {
			continue
		}
		r.endorseOrWait(pr)
	}
}

// onDirect dispatches direct messages (view-change shares, echoes, state
// transfer), frame with its channel tag. An echo frame was sent to this host
// alone (sendEcho) and is released once read; every other direct message is
// a copy (router.Send) that its handler may keep views of.
func (r *Replica) onDirect(from ids.ID, frame []byte) {
	_, payload := router.Split(frame)
	rd := wire.NewReader(payload)
	tag := rd.U8()
	switch tag {
	case tagCertifyVC:
		v := View(rd.U64())
		about := ids.ID(rd.I64())
		stateBytes := rd.Bytes()
		sig := rd.Bytes()
		if rd.Done() == nil {
			r.onCertifyVC(from, v, about, stateBytes, sig)
		}
	case tagStateReq, tagStateResp:
		r.onStateTransfer(from, tag, rd)
	case tagEcho:
		r.onEcho(from, rd)
		router.Release(frame)
	case tagJoinProbe:
		r.onJoinProbe(from, rd)
	case tagJoinAns:
		r.onJoinAns(from, rd)
	}
}

// onCertifyVC implements lines 13-19 at the new leader: collect f+1
// matching shares about f+1 distinct replicas, then broadcast NEW_VIEW and
// re-propose the open slots.
func (r *Replica) onCertifyVC(from ids.ID, v View, about ids.ID, stateBytes []byte, sig xcrypto.Signature) {
	if !r.admits(viewShare, v, 0) || r.observing() {
		// Observing: an amnesiac leader must not start a view; the
		// followers' suspicion timers move the cluster to the next one.
		return
	}
	if r.cfg.indexOf(from) < 0 || r.cfg.indexOf(about) < 0 {
		return
	}
	rec := r.views.at(v)
	if rec.shares == nil {
		rec.shares = make(table[ids.ID, vcCert])
	}
	vc := rec.shares.at(about)
	// One share per signer: a second state from it is refused unverified.
	state := string(stateBytes)
	if !vc.shares.Admits(from, state) {
		return
	}
	if stmt := xcrypto.CertifyViewChange(uint64(v), about, stateBytes); !r.signer.Verify(r.proc, from, stmt.Bytes(), sig) {
		return
	}
	// A replica's state is certified once f+1 signers agree on the bytes; with
	// one share per signer out of 2f+1, at most one state gets there. It is
	// decoded here, once (a state that does not decode certifies nothing: no
	// correct replica signs one).
	if vc.shares.Add(from, state, sig) >= r.cfg.f()+1 && !vc.certified {
		var err error
		vc.cert, err = newReplicaCert(about, stateBytes, xcrypto.Cert{})
		vc.certified = err == nil
	}
	// The certified slice feeds straight into the NEW_VIEW message (startView
	// truncates it to f+1): about IDs ascending keeps the message bytes
	// identical across runs.
	certified := make([]ReplicaCert, 0, r.cfg.n())
	for _, aboutID := range sortedKeys(rec.shares) {
		if c := rec.shares[aboutID]; c.certified {
			cert := c.cert
			cert.Sigs = c.shares.Cert(string(cert.StateBytes))
			certified = append(certified, cert)
		}
	}
	if len(certified) < r.cfg.f()+1 {
		return
	}
	rec.pending = certified
	if r.view < v {
		// We must declare (seal) view v ourselves before speaking in it;
		// maybeSeal starts the view when the seal lands.
		r.joinView(v)
		return
	}
	r.startView(v, rec)
}

// nvPlan is what a NEW_VIEW's certified states oblige the view's leader to
// propose (MustPropose, lines 25-27), worked out once per message: per slot
// the highest-view certified COMMIT (between equal views the earlier
// certificate's), and the highest slot any certified COMMIT names.
type nvPlan struct {
	maxOpen Slot
	commits commitLog
}

func planOf(certs []ReplicaCert) nvPlan {
	var pl nvPlan
	for _, c := range certs {
		for _, cc := range c.State.Commits {
			pl.maxOpen = max(pl.maxOpen, cc.Slot)
			if best := pl.commits.at(cc.Slot); best == nil {
				pl.commits.put(cc)
			} else if cc.View > best.View {
				*best = cc
			}
		}
	}
	return pl
}

// mustPropose implements lines 25-27. any=true means the slot is beyond
// every certified commit and checkpoint: the leader may propose fresh
// requests there.
func (pl *nvPlan) mustPropose(s Slot) (req Request, any bool) {
	if best := pl.commits.at(s); best != nil {
		return best.Req, false
	}
	if s > pl.maxOpen {
		return Request{}, true
	}
	return NoOp(), false
}

// adoptNewView installs an accepted NEW_VIEW's plan in its leader's
// state[p] and adopts the highest checkpoint its certificates carry.
func (r *Replica) adoptNewView(st *replicaState, nv *NewViewMsg) {
	st.plan, st.planView, st.planned = nv.plan, nv.View, true
	for _, c := range nv.Certs {
		r.maybeCheckpoint(c.State.Checkpoint)
	}
}

// startView is the new leader's half of lines 15-19. The caller guarantees
// r.view == v and that SEAL_VIEW(v) was broadcast before.
func (r *Replica) startView(v View, rec *viewRec) {
	nv := NewViewMsg{View: v, Certs: rec.pending[:r.cfg.f()+1]}
	rec.pending, rec.opened = nil, true
	nv.plan = planOf(nv.Certs)
	r.broadcastNewView(nv)
	r.adoptNewView(r.state[r.cfg.Self], &nv)
	// Re-propose every open slot per MustPropose.
	for s := r.chkpt.Seq; s < r.chkpt.Seq+Slot(r.cfg.Window); s++ {
		req, any := nv.plan.mustPropose(s)
		if any {
			break // slots beyond the certified range take fresh requests
		}
		p := Prepare{View: v, Slot: s, Req: req}
		if s >= r.nextSlot {
			r.nextSlot = s + 1
		}
		r.broadcastPrepare(p)
	}
	r.rebroadcastPending()
	r.pumpProposals()
}

// broadcastNewView puts nv on this leader's own channel. The certified
// states it carries scale with the in-flight window (up to f+1 replicas'
// undecided commits, request payloads included), so the message can
// legitimately exceed the channel's per-message cap; it then travels as a
// FIFO train of tagNewViewFrag chunks that receivers reassemble — the
// channel's non-equivocation covers the train exactly as it would the
// monolithic message.
func (r *Replica) broadcastNewView(nv NewViewMsg) {
	b := encodeNewView(nv)
	g := r.groups[r.cfg.Self]
	if len(b) <= g.MsgCap() {
		g.Broadcast(b)
		return
	}
	chunk := g.MsgCap() - nvFragOverhead
	total := (len(b) + chunk - 1) / chunk
	for i := 0; i < total; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > len(b) {
			hi = len(b)
		}
		g.Broadcast(encodeNewViewFrag(nvFrag{view: nv.View, idx: i, total: total, chunk: b[lo:hi]}))
		r.NewViewFragsSent++
	}
}

// onNewView implements lines 21-23 at followers (readNewView vetted nv).
func (r *Replica) onNewView(st *replicaState, nv NewViewMsg) {
	st.newViewUsed = false
	r.adoptNewView(st, &nv)
	if r.observing() {
		// Passive view tracking: the NEW_VIEW message is f+1-certified, so
		// a rejoining replica may follow it without sealing or re-echoing.
		if nv.View > r.view {
			r.setView(nv.View)
		}
		return
	}
	// Catch up to the new view (line 23), declaring it on our own channel.
	r.joinView(nv.View)
	r.rebroadcastPending()
	r.reprocessPrepares()
	r.resetProgressTimer()
}

// ---------------------------------------------------------------------
// Byzantine checks (Algorithm 5). onConsensusMsg runs the delivered tag's
// check against state[p] before it applies the message; a failed check
// proves p Byzantine and blocks its channel (Algorithm 2 line 1).
// ---------------------------------------------------------------------

func (r *Replica) validPrepare(p ids.ID, st *replicaState, pr *Prepare) bool {
	if st.view != pr.View || r.cfg.leaderOf(pr.View) != p {
		return false
	}
	if !r.inWindowOf(&st.checkpoint, pr.Slot) {
		return false
	}
	if prev, dup := st.prepares[pr.Slot]; dup && prev.View == pr.View {
		return false // p already prepared this slot in this view
	}
	if pr.Req.IsBatch() && r.subs(&pr.Req) == nil {
		return false // a correct leader packs whole client requests only
	}
	if pr.View > 0 {
		if !st.planned {
			return false
		}
		req, any := st.plan.mustPropose(pr.Slot)
		if !any && !bytes.Equal(EncodeRequest(req), EncodeRequest(pr.Req)) {
			return false
		}
	}
	return true
}

func (r *Replica) validCommit(st *replicaState, c *CommitCert) bool {
	if !r.inWindowOf(&st.checkpoint, c.Slot) || c.View > st.view {
		return false
	}
	// Verify PΣ: f+1 valid CERTIFY signatures over the request digest
	// (cached shares verified on arrival cost nothing here).
	dg := r.digest(&c.Req)
	valid := 0
	for q, sig := range c.Sigs.All() {
		if r.cfg.indexOf(q) >= 0 && r.verifyCertifySig(c.View, c.Slot, dg, q, sig) {
			valid++
		}
	}
	return valid >= r.cfg.f()+1
}

// opensView reports whether a NEW_VIEW of view v, whole or as a fragment
// train, may come next on p's channel: p leads the view it last declared, v
// is that view, only CHECKPOINTs have followed the declaration, and p has not
// opened v before (a correct leader opens a view once: viewRec.opened). Our
// own plan is adopted when we start the view (startView), ahead of the
// NEW_VIEW's self-delivery.
func (r *Replica) opensView(p ids.ID, st *replicaState, v View) bool {
	reopens := st.planned && st.planView == v && p != r.cfg.Self
	return r.cfg.leaderOf(st.view) == p && v == st.view && !st.newViewUsed && !reopens
}

// readNewView decodes a (possibly reassembled) NEW_VIEW from broadcaster p
// and vets it: it must open p's current view and carry f+1 distinct replica
// certs, each with f+1 valid attesting signatures over its certified state.
// An accepted message leaves with its re-proposal plan.
func (r *Replica) readNewView(p ids.ID, st *replicaState, rd *wire.Reader) (NewViewMsg, bool) {
	nv, err := decodeNewView(rd)
	if err != nil || rd.Done() != nil || !r.opensView(p, st, nv.View) {
		return nv, false
	}
	seen := make(map[ids.ID]bool)
	for _, c := range nv.Certs {
		if seen[c.About] || r.cfg.indexOf(c.About) < 0 || c.State.View != nv.View {
			return nv, false
		}
		seen[c.About] = true
		stmt := xcrypto.CertifyViewChange(uint64(nv.View), c.About, c.StateBytes)
		if !r.signer.Valid(r.proc, r.cfg.Replicas, stmt.Bytes(), c.Sigs, r.cfg.f()+1) {
			return nv, false
		}
	}
	if len(nv.Certs) < r.cfg.f()+1 {
		return nv, false
	}
	nv.plan = planOf(nv.Certs)
	return nv, true
}

// onNewViewFrag vets and accumulates one chunk of a fragmented NEW_VIEW
// train, which must open p's view as the whole message would and advertise
// no more chunks than a legitimate NEW_VIEW could need. Index 0 always
// starts a fresh train — a reborn leader's channel reset re-pushes its tail
// from the top. A chunk that does not extend the current train (or finds
// none: nvTotal is 0) is a mid-train resume after a summary jump healed a
// FIFO gap: the prefix is gone, so the remainder of the train is discarded
// rather than treated as Byzantine. The final chunk completes, in the buffer
// the train was kept in, bytes that must pass exactly like a monolithic
// NEW_VIEW.
func (r *Replica) onNewViewFrag(p ids.ID, st *replicaState, fr nvFrag) bool {
	if !r.opensView(p, st, fr.view) || fr.total > r.maxNewViewFrags() {
		return false
	}
	switch {
	case fr.idx == 0:
		st.nvBuf = append(st.nvBuf[:0], fr.chunk...)
		st.nvView, st.nvTotal, st.nvNext = fr.view, fr.total, 1
	case st.nvTotal != fr.total || st.nvNext != fr.idx || st.nvView != fr.view:
		st.dropNewViewTrain()
	case fr.idx < fr.total-1:
		st.nvBuf = append(st.nvBuf, fr.chunk...)
		st.nvNext++
	default:
		// A rejected train is left as it was: the append lands beyond
		// st.nvBuf's length.
		rd := wire.NewReader(append(st.nvBuf, fr.chunk...))
		if rd.U8() != tagNewView {
			return false
		}
		nv, ok := r.readNewView(p, st, rd)
		if !ok {
			return false
		}
		st.dropNewViewTrain()
		r.onNewView(st, nv)
	}
	return true
}

// maxNewViewFrags bounds a fragment train's advertised length: the largest
// legitimate NEW_VIEW is f+1 replica certs, each a certified state no
// bigger than the channel summary cap plus f+1 signatures and framing.
// Anything advertising more chunks than that is Byzantine.
func (r *Replica) maxNewViewFrags() int {
	maxBytes := (r.cfg.f()+1)*(r.cfg.SummaryCap()+(r.cfg.f()+1)*(xcrypto.SigLen+16)+64) + 64
	chunk := r.cfg.groupMsgCap() - nvFragOverhead
	return (maxBytes+chunk-1)/chunk + 1
}

// ---------------------------------------------------------------------
// CTBcast summaries: capture / apply the consensus-level state[p].
// ---------------------------------------------------------------------

// captureState serializes state[p] deterministically: every correct
// replica that delivered the same FIFO prefix produces identical bytes,
// which is what lets f+1 shares match.
func (r *Replica) captureState(p ids.ID) []byte {
	st := r.state[p]
	cs := CertifiedState{
		View:       st.view,
		Checkpoint: st.checkpoint,
		// Only commits inside p's declared window are relevant (older slots
		// are covered by the checkpoint); this also bounds the summary size.
		Commits: st.commits.window(st.checkpoint.Seq, st.checkpoint.Seq+Slot(r.cfg.Window)),
	}
	return encodeCertifiedState(&cs)
}

// applySummary installs a certified summary of p's stream for a receiver
// that missed messages: the summarized checkpoint and commits become
// state[p], and their consensus effects replay.
func (r *Replica) applySummary(p ids.ID, stateBytes []byte) {
	cs, err := decodeCertifiedState(stateBytes)
	if err != nil {
		return
	}
	st := r.state[p]
	st.view = cs.View
	// A summary jump may have skipped part of a NEW_VIEW fragment train;
	// the prefix is unrecoverable, so discard the train's remainder as it
	// arrives (the skipped NEW_VIEW itself is gone either way — summaries
	// carry checkpoints and commits, not view-opening messages).
	st.dropNewViewTrain()
	if cs.Checkpoint.Supersedes(&st.checkpoint) {
		st.checkpoint = cs.Checkpoint
		r.maybeCheckpoint(cs.Checkpoint)
	}
	// Slot order: onCommit can decide slots and emit messages.
	for _, c := range cs.Commits {
		r.onCommit(st, c)
	}
}
