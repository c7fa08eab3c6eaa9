package consensus

import (
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
)

// This file implements cold rejoin: a replica that crashed and restarted
// with no durable state re-enters the cluster without weakening any
// quorum argument. The protocol has three phases:
//
//   - probing: broadcast a JOIN probe carrying a fresh incarnation nonce.
//     Peers that see a higher nonce rewind every channel they hold for us
//     (receiver rings, CTBcast channel state, sender-side ack floors) so
//     our reborn identifier stream is accepted, then answer with their
//     current (view, stable checkpoint). f+1 matching answers fix the
//     sync point — no lone Byzantine peer can define it.
//
//   - observing: adopt the f+1-vouched checkpoint (certificate-verified),
//     pull the snapshot through the ordinary state-transfer path
//     (digest-checked against the f+1-signed state digest), and process
//     traffic passively: deliver, decide, execute, record snapshots. We
//     send no proposals, echoes, certify shares, fast-path votes, commit
//     broadcasts, checkpoint shares, or view-change messages. The silence
//     is the safety argument: any promise the pre-crash incarnation made
//     (WILL_COMMIT, CERTIFY) concerns slots at or below the sync window;
//     by staying mute until a checkpoint STRICTLY past the sync point is
//     stable and locally executed, every slot we could have promised on
//     is pruned before we speak again, so amnesia cannot become
//     equivocation.
//
//   - resumed: re-declare our view (a SEAL_VIEW frame, accepted by the
//     relaxed validator since peers' frozen record of our pre-crash view
//     may differ) and rebroadcast the stable checkpoint as the first
//     frames of the reborn channel, then participate normally. One
//     residual guard: we never lead the view we resumed in (noLeadView),
//     because peers may hold a pre-crash prepare of ours for a still-live
//     slot in that view and would flag an innocent re-proposal as
//     equivocation. The followers' suspicion timers rotate leadership
//     past us if the cluster is otherwise idle.
//
// Peers deliberately do NOT reset the consensus-level record they keep
// about us (state[p], byzBlocked): those are the equivocation backstops,
// and a Byzantine replica faking a restart must not be able to launder
// its history through a JOIN probe.

type joinPhase int

const (
	joinNone joinPhase = iota
	joinProbing
	joinObserving
)

// joinAnswer is one peer's claim about the current sync point.
type joinAnswer struct {
	view View
	cp   Checkpoint
}

// joinRetryInterval paces probe rebroadcasts and snapshot-pull retries.
// Comfortably above a cluster round-trip, far below the suspicion timeout.
const joinRetryInterval = 2 * sim.Millisecond

// observing reports whether this replica is in its rejoin window (probing
// or observing) and must stay silent on all consensus channels.
func (r *Replica) observing() bool { return r.joinPhase != joinNone }

// Recovering reports whether the replica is still in its cold-rejoin
// window (exported for harnesses and operators).
func (r *Replica) Recovering() bool { return r.observing() }

// startColdJoin enters the probing phase. Called from NewReplica when
// Config.JoinNonce is non-zero.
func (r *Replica) startColdJoin() {
	r.joinPhase = joinProbing
	// The memory nodes survived our crash, so our own registers in our
	// own group still hold high pre-crash identifiers that would alias or
	// conflict with the reborn k=1.. stream. Overwrite them with garbage
	// (readers skip undecodable entries as Byzantine noise). Our stale
	// registers in other groups are harmless: those streams' identifiers
	// only grow past the recorded values, and lower-k entries are ignored.
	r.groups[r.cfg.Self].ResetChannel()
	r.sendJoinProbe()
}

// sendJoinProbe broadcasts the JOIN probe and re-arms itself until f+1
// matching answers arrive. Probes are idempotent at peers: channel resets
// happen only when the nonce increases, answers are sent every time.
func (r *Replica) sendJoinProbe() {
	if r.joinPhase != joinProbing {
		return
	}
	w := wire.NewWriter(16)
	w.U8(tagJoinProbe)
	w.U64(r.cfg.JoinNonce)
	frame := w.Finish()
	for _, p := range r.cfg.Replicas {
		if p == r.cfg.Self {
			continue
		}
		r.rt.Send(p, router.ChanDirect, frame)
	}
	r.joinProbeTimer = r.proc.After(joinRetryInterval, r.sendJoinProbe)
}

// onJoinProbe handles a restarted replica's probe: rewind every channel we
// hold for it (first probe of this incarnation only), then answer with our
// current view and stable checkpoint.
func (r *Replica) onJoinProbe(from ids.ID, rd *wire.Reader) {
	nonce := rd.U64()
	if rd.Done() != nil || r.cfg.indexOf(from) < 0 || from == r.cfg.Self {
		return
	}
	if nonce > r.peerJoinNonce[from] {
		r.peerJoinNonce[from] = nonce
		r.resetPeerChannels(from)
	}
	w := wire.NewWriter(256)
	w.U8(tagJoinAns)
	w.U64(nonce)
	w.U64(uint64(r.view))
	r.chkpt.encode(w)
	r.rt.Send(from, router.ChanDirect, w.Finish())
}

// resetPeerChannels rewinds all local communication state for a reborn
// peer: receiver rings (so idx-0 frames are accepted again), the CTBcast
// channel it broadcasts on (locks, deliveries, FIFO cursor), our LOCKED
// echo state for it in every group, and — crucially — the sender-side ack
// floors our broadcasters hold for it. Without the ack reset an idle
// channel would never re-push its retained tail (including the summary
// certificate that heals the joiner's FIFO gap), and the joiner would
// stall forever on any channel that happened to be quiet.
func (r *Replica) resetPeerChannels(p ids.ID) {
	r.hub.ResetPeer(p)
	for _, id := range sortedKeys(r.groups) {
		g := r.groups[id]
		if id == p {
			g.ResetChannel()
		}
		g.ResetMember(p)
	}
	r.auxOut.ResetReceiver(p)
}

// onJoinAns collects sync-point answers. f+1 matching (view, seq, digest)
// tuples fix the sync point; the adopted certificate still has to verify,
// and we take it from the first answer in replica order whose cert checks
// out, so a Byzantine answer with a correct tuple but garbage signatures
// cannot wedge the join.
func (r *Replica) onJoinAns(from ids.ID, rd *wire.Reader) {
	if r.joinPhase != joinProbing || r.cfg.indexOf(from) < 0 {
		return
	}
	nonce := rd.U64()
	view := View(rd.U64())
	cp, err := decodeCheckpoint(rd)
	if err != nil || rd.Done() != nil || nonce != r.cfg.JoinNonce {
		return
	}
	r.joinAnswers[from] = joinAnswer{view: view, cp: cp}
	matching := 0
	for _, a := range r.joinAnswers {
		if a.view == view && a.cp.Seq == cp.Seq && a.cp.StateDigest == cp.StateDigest {
			matching++
		}
	}
	if matching < r.cfg.f()+1 {
		return
	}
	for _, p := range sortedKeys(r.joinAnswers) {
		a := r.joinAnswers[p]
		if a.view != view || a.cp.Seq != cp.Seq || a.cp.StateDigest != cp.StateDigest {
			continue
		}
		if a.cp.Seq == 0 || r.verifyCheckpointCert(&a.cp) {
			r.adoptSyncPoint(view, a.cp)
			return
		}
	}
}

// adoptSyncPoint transitions probing -> observing at the f+1-vouched
// (view, checkpoint) pair.
func (r *Replica) adoptSyncPoint(v View, cp Checkpoint) {
	r.joinPhase = joinObserving
	r.joinSyncSeq = cp.Seq
	r.joinProbeTimer.Cancel()
	r.joinAnswers = make(map[ids.ID]joinAnswer)
	if v > r.view {
		r.setView(v)
	}
	if cp.Seq > 0 {
		// Observe-gated: adopts + prunes + starts the snapshot pull, but
		// does not rebroadcast or pump proposals.
		r.maybeCheckpoint(cp)
	}
}

// maybeResumeFromJoin ends the observe window once a checkpoint STRICTLY
// past the sync point is stable AND locally executed. Strictness is what
// guarantees every slot the pre-crash incarnation could have voted on has
// been pruned cluster-wide before we speak again.
func (r *Replica) maybeResumeFromJoin() {
	if r.joinPhase != joinObserving || r.chkpt.Seq <= r.joinSyncSeq || r.lastApplied < r.chkpt.Seq {
		return
	}
	r.resumeParticipation()
}

// resumeParticipation re-enters normal operation. The first frames of the
// reborn channel re-declare our view and stable checkpoint so peers'
// frozen record of our pre-crash state is superseded (the checkpoint seq
// is provably above anything we broadcast pre-crash, so their strict
// Supersedes check passes).
func (r *Replica) resumeParticipation() {
	r.joinPhase = joinNone
	r.Rejoins++
	r.noLeadView = r.view
	r.noLeadSet = true
	w := wire.NewWriter(16)
	w.U8(tagSealView)
	w.U64(uint64(r.view))
	r.groups[r.cfg.Self].Broadcast(w.Finish())
	w = wire.NewWriter(256)
	w.U8(tagCheckpoint)
	r.chkpt.encode(w)
	r.groups[r.cfg.Self].Broadcast(w.Finish())
	r.reprocessPrepares()
	r.armProgressTimer()
}
