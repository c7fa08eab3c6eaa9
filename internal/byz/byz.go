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
// cannot stop correct nodes from talking to each other. Policies parse the same wire
// formats the protocol uses (router channel tag, msgring frame + checksum,
// consensus PREPARE, RPC response) and re-encode with recomputed
// checksums, so corrupted frames are indistinguishable from honest traffic
// at the transport layer — the defenses above it have to do the work.
//
// Mutating policies are pure functions of (destination, frame): a
// retransmitted frame carries the same corruption, so the attack is
// deterministic per seed and cannot be detected as mere bit-rot.
package byz

import (
	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// Policy rewrites one outbound frame: nil drops it, one element forwards
// (possibly mutated), several also inject (replays). frame is the full
// endpoint payload including the router channel tag; returned frames must
// be fresh slices or the unmodified input, never a mutated alias.
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
// node's LOCK or LOCKED-echo ring frames and re-frames the result with a
// recomputed ring checksum; every other frame (SIGNED and summary traffic,
// other channels) and every message mutate declines passes unchanged.
func rewriteLocked(frame []byte, mutate func(m []byte) ([]byte, bool)) [][]byte {
	if len(frame) == 0 || frame[0] != router.ChanRing {
		return keep(frame)
	}
	rd := wire.NewReader(frame[1:])
	inst := rd.U32()
	slot := rd.U32()
	inc := rd.U64()
	rd.U64() // original checksum, recomputed below
	data := rd.Bytes()
	if rd.Done() != nil || len(data) == 0 {
		return keep(frame)
	}
	tag := data[0]
	if tag != wire.RingTagLock && tag != wire.RingTagLocked {
		return keep(frame) // leave SIGNED/summary traffic to the slow path
	}
	drd := wire.NewReader(data[1:])
	k := drd.U64()
	m := drd.Bytes()
	if drd.Done() != nil {
		return keep(frame)
	}
	m2, ok := mutate(m)
	if !ok {
		return keep(frame)
	}
	dw := wire.NewWriter(16 + len(m2))
	dw.U8(tag)
	dw.U64(k)
	dw.Bytes(m2)
	newData := dw.Finish()
	w := wire.NewWriter(len(frame) + 16)
	w.U8(router.ChanRing)
	w.U32(inst)
	w.U32(slot)
	w.U64(inc)
	w.U64(xcrypto.ChecksumNoCharge(newData))
	w.Bytes(newData)
	return [][]byte{w.Finish()}
}

// mutatePrepare rewrites the client payload inside a PREPARE carrying
// exactly one non-empty request, with a destination-derived XOR mask
// (pure in (to, m), so retransmissions equivocate consistently).
func mutatePrepare(m []byte, to ids.ID) ([]byte, bool) {
	rd := wire.NewReader(m)
	if rd.U8() != wire.TagPrepare {
		return nil, false
	}
	view := rd.U64()
	slot := rd.U64()
	client := rd.I64()
	num := rd.U64()
	payload := rd.Bytes()
	if rd.Done() != nil || len(payload) == 0 {
		return nil, false // filler/no-op proposals have nothing to equivocate
	}
	mask := byte(uint64(to)&0xff) ^ 0xA5
	if mask == 0 {
		mask = 0xA5
	}
	forged := make([]byte, len(payload))
	for i, b := range payload {
		forged[i] = b ^ mask
	}
	w := wire.NewWriter(len(m) + 8)
	w.U8(wire.TagPrepare)
	w.U64(view)
	w.U64(slot)
	w.I64(client)
	w.U64(num)
	w.Bytes(forged)
	return w.Finish(), true
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

// batchClient and noClient mirror consensus: the container marker, and a
// client identity no deployment assigns.
const (
	batchClient = -2
	noClient    = 999_999
)

// Outbound implements Policy.
func (p BadBatch) Outbound(_ ids.ID, frame []byte) [][]byte {
	return rewriteLocked(frame, func(m []byte) ([]byte, bool) {
		rd := wire.NewReader(m)
		if rd.U8() != wire.TagPrepare {
			return nil, false
		}
		view, slot := rd.U64(), rd.U64()
		client, num, payload := rd.I64(), rd.U64(), rd.Bytes()
		if rd.Done() != nil || len(payload) == 0 || int(view%uint64(p.N)) != p.Index {
			return nil, false // filler/no-op proposals stay as they are
		}
		// The honest entries: the container's own, or the lone request.
		n, entries := uint64(1), []byte(nil)
		if client == batchClient {
			brd := wire.NewReader(payload)
			n = brd.Uvarint()
			entries = payload[len(payload)-brd.Remaining():]
		} else {
			ew := wire.NewWriter(24 + len(payload))
			ew.I64(client)
			ew.U64(num)
			ew.Bytes(payload)
			entries = ew.Finish()
		}
		first := wire.NewReader(entries)
		fc, fn, fp := first.I64(), first.U64(), first.Bytes()
		bw := wire.NewWriter(len(entries) + len(fp) + 64)
		bw.Uvarint(n + 1)
		bw.Raw(entries)
		switch (slot + uint64(p.Shift)) % 3 {
		case 0: // the first request again
			bw.I64(fc)
			bw.U64(fn)
			bw.Bytes(fp)
		case 1: // a request nobody sent
			bw.I64(noClient)
			bw.U64(slot + 1)
			bw.Bytes(fp)
		default: // a container inside the container
			bw.I64(batchClient)
			bw.U64(0)
			bw.Bytes([]byte{0})
		}
		w := wire.NewWriter(len(m) + len(fp) + 96)
		w.U8(wire.TagPrepare)
		w.U64(view)
		w.U64(slot)
		w.I64(batchClient)
		w.U64(0)
		w.Bytes(bw.Finish())
		return w.Finish(), true
	})
}

// ForgeReads corrupts this replica's client-facing replies: read replies
// (wire.TagReadResponse) get flipped result bytes, a version inflated by
// 2^40 and lying served/crossed flags; ordered replies (wire.TagResponse)
// get flipped result bytes, an inflated slot and a flipped parked marker.
// The policies parse frames straight off the wire registry
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
	if len(frame) < 2 || frame[0] != router.ChanRPC {
		return keep(frame)
	}
	tag := frame[1]
	if tag != wire.TagResponse && tag != wire.TagReadResponse {
		return keep(frame)
	}
	rd := wire.NewReader(frame[2:])
	num := rd.U64()
	version := rd.U64()
	flags := rd.U8()
	result := rd.Bytes()
	if rd.Done() != nil {
		return keep(frame)
	}
	forged := make([]byte, len(result))
	for i, b := range result {
		forged[i] = b ^ 0x5A
	}
	version += 1 << 40 // claim a state version far past anything real
	if tag == wire.TagReadResponse {
		flags = (flags | wire.ReadFlagServed) ^ wire.ReadFlagCrossed
	} else {
		flags ^= wire.RespFlagParked
	}
	w := wire.NewWriter(len(frame) + 8)
	w.U8(router.ChanRPC)
	w.U8(tag)
	w.U64(num)
	w.U64(version)
	w.U8(flags)
	w.Bytes(forged)
	return [][]byte{w.Finish()}
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
	if len(frame) < 2 || frame[0] != router.ChanRPC || frame[1] != wire.TagResponse {
		return keep(frame)
	}
	rd := wire.NewReader(frame[2:])
	num := rd.U64()
	slot := rd.U64()
	flags := rd.U8()
	result := rd.Bytes()
	if rd.Done() != nil || len(result) != 1 {
		return keep(frame)
	}
	forged := result[0]
	switch forged {
	case app.StatusOK: // a yes-vote becomes a refusal
		forged = app.StatusConflict
	case app.StatusConflict: // a refusal becomes a yes-vote
		forged = app.StatusOK
	}
	w := wire.NewWriter(len(frame) + 4)
	w.U8(router.ChanRPC)
	w.U8(wire.TagResponse)
	w.U64(num)
	w.U64(slot)
	w.U8(flags)
	w.Bytes([]byte{forged})
	out := [][]byte{w.Finish()}

	every := p.ReplayEvery
	if every <= 0 {
		every = 3
	}
	if p.prevs == nil {
		p.prevs = make(map[ids.ID][]byte)
	}
	p.sent++
	if prev := p.prevs[to]; prev != nil && p.sent%every == 0 {
		out = append(out, prev)
	}
	p.prevs[to] = out[0]
	return out
}
