// Package byz is the Byzantine fault-injection layer: it installs policies
// as outbound rewrites on a simulated network (simnet.Network.SetOutbound),
// so selected nodes send *adversarial* traffic — equivocating proposals,
// forged read replies, selective silence, corrupted 2PC votes — while the
// rest of the cluster runs unmodified. The paper's whole claim (uBFT:
// safety with up to f Byzantine replicas over disaggregated memory) rests
// on quorum-intersection arguments; this package turns those arguments
// into executable attacks so the scenario suite (internal/byz/scenario)
// can assert the defenses hold — and, with the defenses explicitly
// switched off, that the invariant checker actually trips.
//
// Design: a Policy rewrites a node's OUTBOUND frames — each Send becomes
// zero (drop), one (forward/mutate) or several (replay) sends, each charged
// and counted as its own. It is step 1 of simnet's fate order, so
// partitions, the network's rule and the link model apply to what it
// emits. Outbound interposition is exactly the Byzantine power model: a
// faulty node can say anything to anyone, but it cannot forge another
// node's sender identity (the transport authenticates links, §2.4) and it
// cannot stop correct nodes from talking to each other. Policies hold no
// codec of their own: each decodes a frame through the owning layer's codec
// (router.Split, msgring.ParseFrame, ctbcast.ParseMsg,
// consensus.DecodePrepare and DecodeBatch, consensus.ParseReply), mutates the
// decoded value and re-encodes it through the same owner (msgring.EncodeFrame
// recomputes the checksum), so corrupted frames are indistinguishable from
// honest traffic at the transport layer — the defenses above it have to do
// the work.
//
// Mutating policies are pure functions of (destination, frame): a
// retransmitted frame carries the same corruption, so the attack is
// deterministic per seed and cannot be detected as mere bit-rot.
package byz

import (
	"bytes"

	"repro/internal/app"
	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Policy rewrites one outbound frame: nil drops it, one element forwards
// (possibly mutated), several also inject (replays). frame is the full
// endpoint payload including the router channel tag; returned frames must
// be fresh slices or the unmodified input, never a mutated alias. A
// completion, a ring ack, an echo or a client reply has one reader, which
// releases it to the process's free list once read (a client keeps the one
// reply it hands to its caller), and a register request is released by its
// client once every transmission of it is answered (router.Release): a
// policy must not keep such a frame past the call or return it twice, since
// by the second delivery its next use may have overwritten it. A policy that
// replays a reply keeps and sends copies.
type Policy interface {
	Outbound(to ids.ID, frame []byte) [][]byte
}

// Infect makes node id of net Byzantine: p rewrites every frame it sends,
// from now on and in every later incarnation of id (simnet.SetOutbound).
// The nodes without a policy are the deployment's correct ones.
func Infect(net *simnet.Network, id ids.ID, p Policy) { net.SetOutbound(id, p.Outbound) }

// keep forwards a frame unmodified.
func keep(frame []byte) [][]byte { return [][]byte{frame} }

// Passthrough forwards every frame untouched: the honest-traffic control
// policy the transport conformance suite runs against.
type Passthrough struct{}

// Outbound implements Policy.
func (Passthrough) Outbound(_ ids.ID, frame []byte) [][]byte { return keep(frame) }

// Silence mutes the node toward a chosen subset of the cluster — the
// "selective silence" adversary: by staying responsive to f+1 nodes and
// silent toward the rest it can try to split quorums or starve specific
// followers into view changes, without ever sending a malformed byte.
type Silence struct {
	Targets map[ids.ID]bool
}

// SilenceOf builds a Silence policy muting the given targets.
func SilenceOf(targets ...ids.ID) *Silence {
	m := make(map[ids.ID]bool, len(targets))
	for _, t := range targets {
		m[t] = true
	}
	return &Silence{Targets: m}
}

// Outbound implements Policy.
func (s *Silence) Outbound(to ids.ID, frame []byte) [][]byte {
	if s.Targets[to] {
		return nil
	}
	return keep(frame)
}

// Equivocate is the equivocating broadcaster: PREPARE proposals carried in
// this node's CTBcast LOCK (and LOCKED echo) frames are mutated
// per-destination, so different followers are told different commands for
// the same slot — the classic split-brain attack CTBcast's LOCKED
// unanimity rule exists to stop (a divergent lock set can never reach
// unanimity, forcing the signed slow path, whose SWMR register arbitration
// picks ONE of the variants for everyone). The mutation XORs the client
// request's payload with a destination-derived byte: same length, valid
// framing, recomputed ring checksum — only the command bytes lie.
type Equivocate struct{}

// Outbound implements Policy.
func (Equivocate) Outbound(to ids.ID, frame []byte) [][]byte {
	return rewriteLocked(frame, func(m []byte) ([]byte, bool) { return mutatePrepare(m, to) })
}

// rewriteLocked applies mutate to the CTBcast message carried by one of this
// node's LOCK or LOCKED-echo ring frames and re-frames the result; every
// other frame (SIGNED and summary traffic, other channels) and every message
// mutate declines passes unchanged.
func rewriteLocked(frame []byte, mutate func(m []byte) ([]byte, bool)) [][]byte {
	ch, payload := router.Split(frame)
	if ch != router.ChanRing {
		return keep(frame)
	}
	f, ok := msgring.ParseFrame(payload)
	if !ok {
		return keep(frame)
	}
	msg, ok := ctbcast.ParseMsg(f.Msg)
	if !ok || msg.Tag != wire.RingTagLock && msg.Tag != wire.RingTagLocked {
		return keep(frame) // leave SIGNED/summary traffic to the slow path
	}
	if msg.M, ok = mutate(msg.M); !ok {
		return keep(frame)
	}
	w := wire.NewWriter(len(f.Msg) + 16)
	ctbcast.AppendMsg(w, msg)
	f.Msg = w.Finish()
	return [][]byte{msgring.EncodeFrame(f)}
}

// mutatePrepare rewrites the client payload inside a PREPARE carrying
// exactly one non-empty request, with a destination-derived XOR mask
// (pure in (to, m), so retransmissions equivocate consistently).
func mutatePrepare(m []byte, to ids.ID) ([]byte, bool) {
	p, err := consensus.DecodePrepare(m)
	if err != nil || len(p.Req.Payload) == 0 {
		return nil, false // filler/no-op proposals have nothing to equivocate
	}
	mask := byte(uint64(to)&0xff) ^ 0xA5
	if mask == 0 {
		mask = 0xA5
	}
	forged := make([]byte, len(p.Req.Payload))
	for i, b := range p.Req.Payload {
		forged[i] = b ^ mask
	}
	p.Req.Payload = forged
	return consensus.EncodePrepare(p), true
}

// BadBatch is the leader that abuses batching: every PREPARE it sends is
// rewritten — identically toward every follower, so CTBcast's unanimity has
// nothing to object to — into a batch container holding the honest
// proposal's requests plus one hostile entry, chosen by slot number: a
// repeat of the first request (exactly-once execution must apply it once),
// a request no client ever sent (the echo rule must withhold every
// follower's endorsement until the view change replaces the leader), or a
// container nested in the container (the FIFO validator must refuse it and
// block the channel). Shift rotates which slot gets which, so a handful of
// seeds meets all three first. Only the node's own proposals are rewritten
// (views it leads: view mod N == Index); its LOCKED echoes of other leaders'
// PREPAREs stay honest, so the view change that removes it finds a working
// fast path.
type BadBatch struct{ Shift, N, Index int }

// noClient is a client identity no deployment assigns.
const noClient = 999_999

// Outbound implements Policy.
func (p BadBatch) Outbound(_ ids.ID, frame []byte) [][]byte {
	return rewriteLocked(frame, func(m []byte) ([]byte, bool) {
		pr, err := consensus.DecodePrepare(m)
		if err != nil || len(pr.Req.Payload) == 0 || int(uint64(pr.View)%uint64(p.N)) != p.Index {
			return nil, false // filler/no-op proposals stay as they are
		}
		// The honest entries: the container's own, or the lone request.
		reqs := []consensus.Request{pr.Req}
		if pr.Req.IsBatch() {
			if reqs, err = consensus.DecodeBatch(pr.Req); err != nil {
				return nil, false
			}
		}
		first := reqs[0]
		switch (uint64(pr.Slot) + uint64(p.Shift)) % 3 {
		case 0: // the first request again
			reqs = append(reqs, first)
		case 1: // a request nobody sent
			reqs = append(reqs, consensus.Request{Client: noClient, Num: uint64(pr.Slot) + 1, Payload: first.Payload})
		default: // a container inside the container
			reqs = append(reqs, consensus.EncodeBatch(nil))
		}
		pr.Req = consensus.EncodeBatch(reqs)
		return consensus.EncodePrepare(pr), true
	})
}

// ForgeReads corrupts this replica's client-facing replies: read replies
// (wire.TagReadResponse) get flipped result bytes, a version inflated by
// 2^40 and lying served/crossed flags; ordered replies (wire.TagResponse)
// get flipped result bytes, an inflated slot and a flipped parked marker.
// The policies name the reply tags of the wire registry
// (internal/wire/tags.go); the tagregistry lint cross-checks that every
// //wire:client-reply tag in the registry is exercised here, so a new
// client-facing reply tag cannot dodge the harness. The attack targets the f+1
// fast-read floor (a forged version must never ratchet the client's
// monotonic floor), the 2f+1 strong-read rule (a lone liar must never get
// a wrong value accepted) and the shard layer's parked/crossed
// revalidation signals.
type ForgeReads struct{}

// Outbound implements Policy.
func (ForgeReads) Outbound(_ ids.ID, frame []byte) [][]byte {
	// reply admits these two tags only; naming them is what the
	// tagregistry lint checks.
	rep, ok := reply(frame)
	if !ok || rep.Tag != wire.TagResponse && rep.Tag != wire.TagReadResponse {
		return keep(frame)
	}
	forged := make([]byte, len(rep.Result))
	for i, b := range rep.Result {
		forged[i] = b ^ 0x5A
	}
	rep.Result = forged
	rep.At += 1 << 40 // claim a state version far past anything real
	if rep.Tag == wire.TagReadResponse {
		rep.Flags = (rep.Flags | wire.ReadFlagServed) ^ wire.ReadFlagCrossed
	} else {
		rep.Flags ^= wire.RespFlagParked
	}
	return [][]byte{consensus.EncodeReply(rep)}
}

// reply decodes a client reply frame (consensus.ParseReply).
func reply(frame []byte) (consensus.Reply, bool) {
	if ch, payload := router.Split(frame); ch == router.ChanRPC {
		return consensus.ParseReply(payload)
	}
	return consensus.Reply{}, false
}

// CorruptVotes attacks the 2PC plane: single-status-byte ordered replies —
// exactly the shape of prepare votes, commit/abort acks and decide acks —
// are flipped between StatusOK (0) and StatusConflict (5), so a yes-vote
// reads as a refusal and vice versa; and every replayEvery'th corrupted
// reply is accompanied by a replay of the previous reply sent to the same
// destination (a stale decide/vote from an earlier transaction). The
// client-side defenses under test: per-replica dedup bitmasks, the f+1
// matching rule over (result, slot), and request-number matching.
type CorruptVotes struct {
	// ReplayEvery injects a stale replay every Nth response (default 3).
	ReplayEvery int

	sent  int
	prevs map[ids.ID][]byte
}

// Outbound implements Policy.
func (p *CorruptVotes) Outbound(to ids.ID, frame []byte) [][]byte {
	rep, ok := reply(frame)
	if !ok || rep.Tag != wire.TagResponse || len(rep.Result) != 1 {
		return keep(frame)
	}
	forged := rep.Result[0]
	switch forged {
	case app.StatusOK: // a yes-vote becomes a refusal
		forged = app.StatusConflict
	case app.StatusConflict: // a refusal becomes a yes-vote
		forged = app.StatusOK
	}
	rep.Result = []byte{forged}
	out := [][]byte{consensus.EncodeReply(rep)}

	every := p.ReplayEvery
	if every <= 0 {
		every = 3
	}
	if p.prevs == nil {
		p.prevs = make(map[ids.ID][]byte)
	}
	p.sent++
	if prev := p.prevs[to]; prev != nil && p.sent%every == 0 {
		out = append(out, bytes.Clone(prev))
	}
	// The client releases the reply it reads, so the replay is kept and sent
	// as a copy.
	p.prevs[to] = bytes.Clone(out[0])
	return out
}
