package consensus

import (
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
	if c := r.cps[nextSeq]; r.lastApplied < nextSeq || (c != nil && c.mine) {
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
		if prev := r.chkpt.Seq; prev > 0 { // nextSeq - Window, without the unsigned subtraction
			r.appVer.PruneVersions(uint64(prev))
		}
	}
	snap := r.cfg.App.Snapshot()
	r.proc.Charge(latmodel.DigestCost(len(snap)))
	dg := xcrypto.DigestNoCharge(snap)
	c := r.cps.at(nextSeq)
	c.keepSnapshot(snap)
	c.digest, c.mine = dg, true
	if r.observing() {
		// The snapshot and digest are recorded (they serve state transfers
		// and cross-check incoming certificates), but an observing joiner
		// contributes no certify share: the 2f live replicas reach f+1 on
		// their own, and their certificate is what ends the observe window.
		return
	}
	// Background signature (§5.4: checkpoints are the fast path's
	// bookkeeping signatures, off the critical path on the crypto pool).
	stmt := xcrypto.CertifyCheckpoint(uint64(nextSeq), dg)
	r.signer.SignBg(r.bgProc, r.proc, stmt.Bytes(), xcrypto.Job{ID: uint64(nextSeq), Digest: dg}, r.ownCheckpointShareFn)
}

// ownCheckpointShare broadcasts this replica's CERTIFY_CHECKPOINT share,
// signed on the crypto pool.
func (r *Replica) ownCheckpointShare(j *xcrypto.Job) {
	w := wire.NewWriter(128)
	w.U8(tagCertifyCP)
	w.U64(j.ID)
	w.Raw(j.Digest[:])
	w.Bytes(j.Sig)
	r.auxBroadcast(w.Finish())
}

// onCertifyCheckpoint collects f+1 matching CERTIFY_CHECKPOINT shares
// (lines 49-50).
func (r *Replica) onCertifyCheckpoint(p ids.ID, seq Slot, dg [xcrypto.DigestLen]byte, sig xcrypto.Signature) {
	if !r.admits(checkpointShare, 0, seq) {
		if st := r.state[p]; seq > max(r.chkpt.Seq, st.held.seq) {
			st.held = cpShare{seq, dg, sig}
		}
		return
	}
	if p != r.cfg.Self {
		r.offerCheckpointShare(p, seq, dg, sig, false)
		return
	}
	// Our own share, self-delivered on our own channel, needs no verification
	// (as in onCertify); p is the channel's owner, never a field of the frame.
	c := r.cps.at(seq)
	r.tallyCheckpoint(seq, dg, c.shares.Add(p, dg, sig))
}

// offerCheckpointShare hands p's share to the collector of seq, which has it
// verified on the crypto pool (checkpoint certification is bookkeeping) only
// while the certificate still needs it (xcrypto.Shares). relayed: the share
// came inside another replica's CHECKPOINT, not on p's own channel.
func (r *Replica) offerCheckpointShare(p ids.ID, seq Slot, dg [xcrypto.DigestLen]byte, sig xcrypto.Signature, relayed bool) {
	c := r.cps.at(seq)
	if c.mine && c.digest != dg {
		return // conflicting digest: some replica diverged; ignore its share
	}
	if c.shares.Offer(p, dg, sig, r.cfg.f()+1, relayed) {
		r.verifyCheckpointShare(p, seq, dg, sig)
	}
}

func (r *Replica) verifyCheckpointShare(p ids.ID, seq Slot, dg [xcrypto.DigestLen]byte, sig xcrypto.Signature) {
	stmt := xcrypto.CertifyCheckpoint(uint64(seq), dg)
	r.signer.VerifyBg(r.bgProc, r.proc, stmt.Bytes(), xcrypto.Job{ID: uint64(seq), From: p, Digest: dg, Sig: sig}, r.checkpointVerdictFn)
}

// checkpointVerdict tallies the crypto pool's verdict on a
// CERTIFY_CHECKPOINT share.
func (r *Replica) checkpointVerdict(j *xcrypto.Job) {
	seq, dg := Slot(j.ID), j.Digest
	if seq <= r.chkpt.Seq {
		return
	}
	c := r.cps.at(seq)
	// A share over a digest that is not ours counts for nothing (see
	// offerCheckpointShare), even if our digest came after it.
	r.tallyCheckpoint(seq, dg, c.shares.Verdict(j.From, j.Sig, j.OK && !(c.mine && c.digest != dg)))
}

// tallyCheckpoint certifies (seq, dg) once n, the verified shares over it,
// reach f+1 — shares over different digests certify nothing. Short of that it
// has the held shares the certificate still needs verified, and releases the
// channels whose CHECKPOINT waits on a certificate the collector can no
// longer form.
func (r *Replica) tallyCheckpoint(seq Slot, dg [xcrypto.DigestLen]byte, n int) {
	c := r.cps[seq]
	if n < r.cfg.f()+1 {
		for q, qdg, sig, ok := c.shares.Next(r.cfg.f() + 1); ok; q, qdg, sig, ok = c.shares.Next(r.cfg.f() + 1) {
			r.verifyCheckpointShare(q, seq, qdg, sig)
		}
		r.releaseCheckpointWaits()
		return
	}
	c.verified, c.verifiedDg = true, dg // every share was verified on its way in, or is our own
	r.maybeCheckpoint(Checkpoint{Seq: seq, StateDigest: dg, Sigs: c.shares.Cert(dg)})
}

// awaitCheckpointCert decides whether a CHECKPOINT waits for the crypto pool
// instead of having its certificate verified on the main process: its
// signatures go to the checkpoint collector of its sequence number as shares
// relayed for their signers, and the channel waits (st.cpWait) for as long as
// the collector may still certify that digest. The wait ends in
// releaseCheckpointWaits; the CHECKPOINT is then judged again, at once if the
// collector certified its digest and by verifyCheckpointCert otherwise.
func (r *Replica) awaitCheckpointCert(st *replicaState, cp *Checkpoint) bool {
	if !r.admits(checkpointShare, 0, cp.Seq) {
		return false
	}
	for q, sig := range cp.Sigs.All() {
		if r.cfg.indexOf(q) >= 0 {
			r.offerCheckpointShare(q, cp.Seq, cp.StateDigest, sig, true)
		}
	}
	if !r.certPending(cp) {
		return false
	}
	st.cpWait = Checkpoint{Seq: cp.Seq, StateDigest: cp.StateDigest}
	return true
}

// certPending reports whether the collector of cp's sequence number, above
// the stable checkpoint, has not certified cp's digest but still may: enough
// shares over it are verified or on their way.
func (r *Replica) certPending(cp *Checkpoint) bool {
	c := r.cps[cp.Seq]
	return cp.Seq > r.chkpt.Seq && c != nil && !(c.verified && c.verifiedDg == cp.StateDigest) &&
		c.shares.Reachable(cp.StateDigest, r.cfg.f()+1)
}

// releaseCheckpointWaits resumes, in replica order, every channel whose
// CHECKPOINT no longer waits on the collector: it certified the digest, can
// no longer certify it, or the stable checkpoint passed it.
func (r *Replica) releaseCheckpointWaits() {
	for _, q := range r.cfg.Replicas {
		if st := r.state[q]; st.cpWait.Seq != 0 && !r.certPending(&st.cpWait) {
			st.cpWait = Checkpoint{}
			r.groups[q].Resume()
		}
	}
}

// verifyCheckpointCert checks a checkpoint's f+1 signatures on the main
// process. Results are cached by (seq, digest): every replica re-broadcasts
// checkpoints, so the same content arrives n times and must not cost n
// certificate verifications on the critical path. A signature that is a
// share this replica already verified on the crypto pool counts without a
// second check; only the others are verified here, and f+1 in all must be
// good. A peer's CHECKPOINT above the stable checkpoint gets here only once
// the crypto pool could not certify it (awaitCheckpointCert).
func (r *Replica) verifyCheckpointCert(cp *Checkpoint) bool {
	if cp.Seq == 0 {
		return true // genesis checkpoint needs no certificate
	}
	c := r.cps[cp.Seq]
	if c != nil && c.verified && c.verifiedDg == cp.StateDigest {
		return true
	}
	r.cpCertChecks++
	stmt := xcrypto.CertifyCheckpoint(uint64(cp.Seq), cp.StateDigest)
	valid := 0
	for q, sig := range cp.Sigs.All() {
		if c != nil && c.shares.Has(q, cp.StateDigest, sig) ||
			r.cfg.indexOf(q) >= 0 && r.signer.Verify(r.proc, q, stmt.Bytes(), sig) {
			valid++
		}
	}
	if valid < r.cfg.f()+1 {
		return false
	}
	c = r.cps.at(cp.Seq)
	c.verified, c.verifiedDg = true, cp.StateDigest
	return true
}

// onCheckpointMsg handles a CHECKPOINT broadcast by p over CTBcast
// (lines 52-55); validity (supersedes + certificate) was already checked.
func (r *Replica) onCheckpointMsg(st *replicaState, cp Checkpoint) {
	st.checkpoint = cp
	// Line 54: forget p's commits and prepares outside the new window.
	st.commits.keep(cp.Seq, cp.Seq+Slot(r.cfg.Window))
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
		r.maybeResumeFromJoin()
	} else {
		// Line 61: re-broadcast the checkpoint so every correct replica
		// learns it even when only one correct replica decided (liveness,
		// §B.3).
		w := wire.NewWriter(256)
		w.U8(tagCheckpoint)
		cp.encode(w)
		r.groups[r.cfg.Self].Broadcast(w.Finish())
		r.pumpProposals()
		r.maybeSeal()
	}
	r.releaseCheckpointWaits()
	for _, q := range r.cfg.Replicas {
		if h := r.state[q].held; h.seq != 0 {
			r.state[q].held = cpShare{}
			r.onCertifyCheckpoint(q, h.seq, h.dg, h.sig)
		}
	}
}

// bringUpToSpeed fast-forwards execution past slots covered by the
// checkpoint. If this replica executed them itself it is a no-op; otherwise
// it starts a state transfer from the certificate's signers. (A snapshot
// this replica keeps at cp.Seq is one it executed or adopted up to, so it
// never has one to adopt here.)
func (r *Replica) bringUpToSpeed(cp *Checkpoint) {
	if r.lastApplied >= cp.Seq {
		return
	}
	// A new certificate: start over at its lowest-ID signer, at once.
	r.pullTimer.Cancel()
	r.pullTries = 0
	r.pullSnapshot()
}

// pullSnapshot asks a signer of the stable checkpoint's certificate for the
// snapshot, and keeps asking every joinRetryInterval for as long as this
// replica's state is behind the checkpoint, rotating through the signers in
// ID order (so every run picks the same peers): a lost request, or a signer
// that is crashed, unreachable or Byzantine-silent, costs one interval, not
// the wait for a later checkpoint that a quiet cluster never produces.
func (r *Replica) pullSnapshot() {
	if r.lastApplied >= r.chkpt.Seq {
		return
	}
	var signers []ids.ID
	for q := range r.chkpt.Sigs.All() {
		if q != r.cfg.Self {
			signers = append(signers, q)
		}
	}
	if len(signers) > 0 {
		w := wire.NewWriter(16)
		w.U8(tagStateReq)
		w.U64(uint64(r.chkpt.Seq))
		r.rt.Send(signers[r.pullTries%len(signers)], router.ChanDirect, w.Finish())
		r.pullTries++
	}
	r.pullTimer = r.proc.After(joinRetryInterval, r.pullSnapshot)
}

func (r *Replica) adoptSnapshot(seq Slot, snap []byte) {
	if r.lastApplied >= seq {
		return
	}
	r.proc.Charge(latmodel.CopyCost(len(snap)))
	r.cfg.App.Restore(snap)
	// Which client copies this replica holds executed in the slots it skips
	// is unknown: the snapshot carries no exactly-once table (ROADMAP 3(a)).
	// Kept, such a copy would count as undecided work for ever (a lone
	// suspicion of a correct leader) and, re-routed at a view change, could
	// execute here a second time. So every copy goes; a request not executed
	// yet is proposed from its other holders' copies.
	for _, dg := range sortedDigests(r.requests) {
		if rs := r.requests[dg]; rs.held {
			rs.releaseBody()
			r.dropIfDead(dg, rs)
		}
	}
	r.lastApplied = seq
	r.cps.at(seq).keepSnapshot(snap)
	r.executeReady()
	r.maybeResumeFromJoin()
}

// onStateTransfer serves and consumes snapshot transfers.
func (r *Replica) onStateTransfer(from ids.ID, tag uint8, rd *wire.Reader) {
	switch tag {
	case tagStateReq:
		seq := Slot(rd.U64())
		if rd.Done() != nil {
			return
		}
		c := r.cps[seq]
		if c == nil || !c.hasSnapshot {
			return
		}
		w := wire.NewWriter(32 + len(c.snapshot))
		w.U8(tagStateResp)
		w.U64(uint64(seq))
		w.Bytes(c.snapshot)
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
