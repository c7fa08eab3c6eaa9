package consensus

import (
	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file implements application checkpoints (Algorithm 2 lines 43-61):
// after executing every slot of the current window, replicas certify a
// snapshot digest with f+1 signatures; the certificate advances the sliding
// window and lets everyone discard per-slot state, bounding memory. It also
// implements the state-transfer extension the paper's prototype left out
// (§7 "the only major unimplemented features are application and replica
// state transfers"): a replica whose checkpoint outruns its execution
// fetches the snapshot from a certificate signer and validates it against
// the f+1-signed digest.

// maybeCreateCheckpoint runs after each execution: once all open slots of
// the current window are applied, certify the next checkpoint.
func (r *Replica) maybeCreateCheckpoint() {
	nextSeq := r.chkpt.Seq + Slot(r.cfg.Window)
	if r.lastApplied < nextSeq || r.cpMine[nextSeq] {
		return
	}
	if r.appVer != nil {
		// Ratchet the MVCC GC horizon to the PREVIOUS checkpoint seq before
		// snapshotting. Creation time — not the asynchronous pruneBelow —
		// is the one point that is a deterministic function of the applied
		// prefix, so every replica compacts identically and the snapshot
		// digests still match; the horizon itself travels inside the
		// snapshot. Keeping one full window of history means any pin a
		// client derived from a recent frontier stays servable.
		if prev := nextSeq - Slot(r.cfg.Window); prev > 0 {
			r.appVer.PruneVersions(uint64(prev))
		}
	}
	snap := r.cfg.App.Snapshot()
	r.proc.Charge(latmodel.DigestCost(len(snap)))
	dg := xcrypto.DigestNoCharge(snap)
	r.snapshots[nextSeq] = snap
	r.cpDigest[nextSeq] = dg
	r.cpMine[nextSeq] = true
	if r.observing() {
		// The snapshot and digest are recorded (they serve state transfers
		// and cross-check incoming certificates), but an observing joiner
		// contributes no certify share: the 2f live replicas reach f+1 on
		// their own, and their certificate is what ends the observe window.
		return
	}
	// Background signature (§5.4: checkpoints are the fast path's
	// bookkeeping signatures, off the critical path on the crypto pool).
	r.signer.SignBg(r.bgProc, r.proc, checkpointPayload(nextSeq, dg), func(sig xcrypto.Signature) {
		if r.stopped {
			return
		}
		w := wire.NewWriter(128)
		w.U8(tagCertifyCP)
		w.U64(uint64(nextSeq))
		w.Raw(dg[:])
		w.Bytes(sig)
		r.auxBroadcast(w.Finish())
	})
}

// onCertifyCheckpoint collects f+1 matching CERTIFY_CHECKPOINT shares
// (lines 49-50).
func (r *Replica) onCertifyCheckpoint(p ids.ID, seq Slot, dg [xcrypto.DigestLen]byte, sig xcrypto.Signature) {
	if seq <= r.chkpt.Seq {
		return
	}
	// Checkpoint certification is bookkeeping: verify on the crypto pool.
	r.signer.VerifyBg(r.bgProc, r.proc, p, checkpointPayload(seq, dg), sig, func(ok bool) {
		if ok {
			r.acceptCertifyCheckpoint(p, seq, dg, sig)
		}
	})
}

func (r *Replica) acceptCertifyCheckpoint(p ids.ID, seq Slot, dg [xcrypto.DigestLen]byte, sig xcrypto.Signature) {
	if seq <= r.chkpt.Seq {
		return
	}
	if want, ok := r.cpDigest[seq]; ok && want != dg {
		return // conflicting digest: some replica diverged; ignore its share
	}
	if r.cpSigs[seq] == nil {
		r.cpSigs[seq] = make(map[ids.ID]xcrypto.Signature)
	}
	r.cpSigs[seq][p] = sig
	if len(r.cpSigs[seq]) < r.cfg.F+1 {
		return
	}
	cp := Checkpoint{Seq: seq, StateDigest: dg, Sigs: r.cpSigs[seq]}
	r.maybeCheckpoint(cp)
}

// verifyCheckpointCert checks a checkpoint's f+1 signatures. Results are
// cached by (seq, digest): every replica re-broadcasts checkpoints, so the
// same content arrives n times and must not cost n certificate
// verifications on the critical path.
func (r *Replica) verifyCheckpointCert(cp *Checkpoint) bool {
	if cp.Seq == 0 {
		return true // genesis checkpoint needs no certificate
	}
	if dg, ok := r.cpVerified[cp.Seq]; ok && dg == cp.StateDigest {
		return true
	}
	valid := 0
	for p, sig := range cp.Sigs {
		if r.cfg.indexOf(p) < 0 {
			continue
		}
		if r.signer.Verify(r.proc, p, checkpointPayload(cp.Seq, cp.StateDigest), sig) {
			valid++
		}
	}
	if valid >= r.cfg.F+1 {
		r.cpVerified[cp.Seq] = cp.StateDigest
		return true
	}
	return false
}

// onCheckpointMsg handles a CHECKPOINT broadcast by p over CTBcast
// (lines 52-55); validity (supersedes + certificate) was already checked.
func (r *Replica) onCheckpointMsg(p ids.ID, cp Checkpoint) {
	st := r.state[p]
	st.checkpoint = cp
	// Line 54: forget p's commits and prepares outside the new window.
	for s := range st.commits {
		if !r.inWindowOf(&cp, s) {
			delete(st.commits, s)
		}
	}
	for s := range st.prepares {
		if !r.inWindowOf(&cp, s) {
			delete(st.prepares, s)
		}
	}
	r.maybeCheckpoint(cp)
}

// maybeCheckpoint implements lines 57-61: adopt a superseding checkpoint,
// bring the application up to speed, re-broadcast, and prune local state.
func (r *Replica) maybeCheckpoint(cp Checkpoint) {
	if !cp.Supersedes(&r.chkpt) {
		return
	}
	if !r.verifyCheckpointCert(&cp) {
		return
	}
	r.chkpt = cp
	r.bringUpToSpeed(&cp)
	r.pruneBelow(cp.Seq)
	if r.nextSlot < cp.Seq {
		r.nextSlot = cp.Seq
	}
	if r.observing() {
		// A rejoining replica stays silent: no rebroadcast (peers' frozen
		// record of our pre-crash checkpoint could make an equal-seq
		// rebroadcast fail their strict Supersedes check) and no proposals.
		// If this checkpoint is the first stable one past the sync point
		// and our state has caught up, the observe window ends here.
		r.armJoinPull()
		r.maybeResumeFromJoin()
		return
	}
	// Line 61: re-broadcast the checkpoint so every correct replica learns
	// it even when only one correct replica decided (liveness, §B.3).
	w := wire.NewWriter(256)
	w.U8(tagCheckpoint)
	cp.encode(w)
	r.groups[r.cfg.Self].Broadcast(w.Finish())
	r.pumpProposals()
	r.maybeSeal()
}

// bringUpToSpeed fast-forwards execution past slots covered by the
// checkpoint. If this replica executed them itself it is a no-op; otherwise
// it starts a state transfer from a certificate signer.
func (r *Replica) bringUpToSpeed(cp *Checkpoint) {
	if r.lastApplied >= cp.Seq {
		return
	}
	if snap, ok := r.snapshots[cp.Seq]; ok {
		r.adoptSnapshot(cp.Seq, snap)
		return
	}
	// State transfer: ask a signer of the certificate for the snapshot —
	// the lowest-ID signer, so every run picks the same peer.
	for _, p := range sortedIDs(cp.Sigs) {
		if p == r.cfg.Self {
			continue
		}
		w := wire.NewWriter(16)
		w.U8(tagStateReq)
		w.U64(uint64(cp.Seq))
		r.rt.Send(p, router.ChanDirect, w.Finish())
		break
	}
}

func (r *Replica) adoptSnapshot(seq Slot, snap []byte) {
	if r.lastApplied >= seq {
		return
	}
	r.proc.Charge(latmodel.CopyCost(len(snap)))
	r.cfg.App.Restore(snap)
	r.lastApplied = seq
	r.snapshots[seq] = snap
	r.executeReady()
	r.maybeResumeFromJoin()
}

// pruneBelow discards all per-slot state covered by a stable checkpoint:
// this is the memory bound of the protocol (finite window x finite state).
// Besides the per-slot maps it prunes the leader-side proposal bookkeeping
// (proposed, seenReq, echo state, executed reqStore entries), whose entries
// would otherwise accumulate one per unique request forever — exactly the
// unbounded growth the paper's finite-memory design rules out.
func (r *Replica) pruneBelow(seq Slot) {
	if seq > r.decidedFloor {
		r.decidedFloor = seq
	}
	for s := range r.slots {
		if s < seq {
			r.slots[s].fallback.Cancel()
			delete(r.slots, s)
		}
	}
	for s := range r.decided {
		if s < seq && s < r.lastApplied {
			delete(r.decided, s)
		}
	}
	for k := range r.promised {
		if k.s < seq {
			delete(r.promised, k)
		}
	}
	for s := range r.cpSigs {
		if s <= seq {
			delete(r.cpSigs, s)
		}
	}
	for s := range r.knownCertSigs {
		if s < seq {
			delete(r.knownCertSigs, s)
		}
	}
	for s := range r.cpVerified {
		if s+Slot(2*r.cfg.Window) < seq {
			delete(r.cpVerified, s)
		}
	}
	for s := range r.cpDigest {
		if s < seq {
			delete(r.cpDigest, s)
			delete(r.cpMine, s)
		}
	}
	for s := range r.snapshots {
		if s+Slot(r.cfg.Window) < seq {
			delete(r.snapshots, s)
		}
	}
	// Leader proposal bookkeeping: a digest proposed below the checkpoint can
	// never be proposed again (its slot is settled), so its dedup entry is
	// dead weight. Ditto seenReq entries whose latest proposal is below the
	// floor — a late duplicate would be re-proposed, but exactly-once
	// execution (execHighest) still suppresses the double apply.
	for dg, s := range r.proposed {
		if s < seq {
			delete(r.proposed, dg)
		}
	}
	for c, seen := range r.seenReq {
		if seen.slot < seq {
			delete(r.seenReq, c)
		}
	}
	// Per-client exactly-once state ages out once the client has been idle
	// for a full window beyond the stable checkpoint: with client churn in
	// the millions the map would otherwise hold one entry per client ever
	// seen. The one-window grace keeps dedup authoritative across every
	// in-window re-proposal (view changes, retransmissions); only a
	// duplicate delayed past two whole checkpoint intervals could slip
	// through, far beyond any retransmission horizon here. Deferred
	// response targets whose request is STILL PARKED are exempt from the
	// horizon regardless of age — the parked client was never answered, so
	// it is exactly the one guaranteed to retransmit, and dropping its
	// entry would re-execute a non-idempotent request at release. Stale
	// targets (ticket no longer parked: superseded by a state transfer
	// that replaced the app's queue) age out normally, and so do their
	// pending exec entries; live deferred targets keep their exec entries
	// alive too.
	deferring, _ := r.cfg.App.(app.Deferring)
	for tk, tgt := range r.deferredResp {
		if tgt.slot+Slot(r.cfg.Window) < seq && (deferring == nil || !deferring.Parked(tk)) {
			delete(r.deferredResp, tk)
		}
	}
	// A pipelined client may have several requests parked at once; the
	// pending exec entry tracks its HIGHEST num, so keep the max live
	// deferred num per client (older parked requests answer through their
	// own deferredResp entry regardless of the exec cache).
	liveDeferred := make(map[ids.ID]uint64, len(r.deferredResp))
	for _, tgt := range r.deferredResp {
		if n, ok := liveDeferred[tgt.client]; !ok || tgt.num > n {
			liveDeferred[tgt.client] = tgt.num
		}
	}
	for c, e := range r.exec {
		if e.slot+Slot(r.cfg.Window) < seq {
			if n, ok := liveDeferred[c]; ok && e.pending && e.num == n {
				continue
			}
			delete(r.exec, c)
		}
	}
	// Request copies whose execution is settled are no longer needed for
	// endorsement or re-proposal.
	for dg, req := range r.reqStore {
		if !req.IsNoOp() && r.executed(req.Client, req.Num) {
			delete(r.reqStore, dg)
		}
	}
	// Echo state: tracking for digests that were proposed is settled
	// (finishEcho normally clears it; this catches view-change leftovers).
	// A set with no backing client copy is either a Byzantine client
	// echo-spraying digests it never sends — which must not grow leader
	// memory — or a real request whose echoes outran its direct copy. The
	// two are indistinguishable now, so give unbacked sets one full
	// checkpoint window of grace before pruning: a real copy arrives well
	// within it (keeping the request off the slow EchoTimeout path, which
	// proposes out of client order), while garbage still dies at the next
	// stable checkpoint. Backed, unproposed sets are live: their request
	// is completing or waiting on its armed EchoTimeout.
	for dg := range r.echoes {
		if _, wasProposed := r.proposed[dg]; !wasProposed {
			if _, held := r.reqStore[dg]; held {
				continue
			}
			if !r.echoGrace[dg] {
				r.echoGrace[dg] = true
				continue
			}
		}
		delete(r.echoes, dg)
		delete(r.echoGrace, dg)
		if t, ok := r.echoTimers[dg]; ok {
			t.Cancel()
			delete(r.echoTimers, dg)
		}
	}
	r.maybeSeal()
}

// onStateTransfer serves and consumes snapshot transfers.
func (r *Replica) onStateTransfer(from ids.ID, tag uint8, rd *wire.Reader) {
	switch tag {
	case tagStateReq:
		seq := Slot(rd.U64())
		if rd.Done() != nil {
			return
		}
		snap, ok := r.snapshots[seq]
		if !ok {
			return
		}
		w := wire.NewWriter(32 + len(snap))
		w.U8(tagStateResp)
		w.U64(uint64(seq))
		w.Bytes(snap)
		r.rt.Send(from, router.ChanDirect, w.Finish())
	case tagStateResp:
		seq := Slot(rd.U64())
		snap := rd.Bytes()
		if rd.Done() != nil {
			return
		}
		// Trust nothing: the snapshot must hash to the f+1-certified digest.
		if seq != r.chkpt.Seq {
			return
		}
		r.proc.Charge(latmodel.DigestCost(len(snap)))
		if xcrypto.DigestNoCharge(snap) != r.chkpt.StateDigest {
			return // forged snapshot from a Byzantine replica
		}
		r.adoptSnapshot(seq, snap)
	}
}
