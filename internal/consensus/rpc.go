package consensus

import (
	"math/bits"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file implements uBFT's RPC layer (§5.4 and Figure 4's Echo round):
// clients send UNSIGNED requests to all replicas (no client signatures on
// the fast path); followers echo each request to the leader so the leader
// knows everyone holds it before proposing; replicas respond after
// execution and the client accepts a result once f+1 replicas agree.
//
// It also implements the unordered read fast path (the classic PBFT-style
// read-only optimization), which needs f+1 matching replies and therefore
// asks f+1 replicas first — the same "minimum on the common path, pay for
// faults when they happen" rule as the ordering pipeline. A read climbs an
// escalation ladder; its two unordered rungs share ONE request number, and
// the ordered rung takes a fresh one (ordNum) like any ordered request:
//
//   - Rung 1: the f+1 replicas of the group with the fewest of this
//     client's reads outstanding (ties rotating with the request number,
//     skipping replicas that recently forced a widen) execute the read.
//     Fault-free this is the whole read: one round trip, f+1 executions.
//   - Rung 2 (widen): the rest of the group is asked as soon as the
//     contacted replicas can no longer supply f+1 matching fresh replies —
//     a refusal, a stale version, a digest mismatch — or the widen deadline
//     (half the read timeout) passes.
//   - Rung 3: the ordered path, when the whole group was asked and still no
//     quorum formed (or the read timeout passed, or the accepted value is
//     transaction-locked).
//
// The acceptance rule is the same on every rung and comes in three
// consistency levels:
//
//   - Monotonic (unpinned): each contacted replica executes the read
//     tentatively against its own last-applied state; the client accepts
//     f+1 matching digests at versions >= its per-group monotonic floor.
//   - Snapshot (pinned): the request names an exact state version; replicas
//     answer as-of that version from their MVCC store (parking briefly if
//     execution has not reached it), so f+1 matching digests attest the
//     value AT that version — the building block of the shard layer's
//     consistent snapshot scatter-gather.
//   - Strong (linearizable): the client requires ALL 2f+1 replicas to
//     agree, so it enters the ladder at rung 2 — first sampled unpinned,
//     then pinned at the highest version any replica revealed — and the
//     accepted version is at least as new as any write that completed
//     before the read began.

const (
	tagEcho         = wire.TagEcho
	tagRequest      = wire.TagRequest
	tagResponse     = wire.TagResponse
	tagReadRequest  = wire.TagReadRequest
	tagReadResponse = wire.TagReadResponse
)

// tagReadResponse flag bits.
const (
	// readFlagServed: the replica answered the read (clear = refused).
	readFlagServed = wire.ReadFlagServed
	// readFlagCrossed: a pinned read may straddle a transaction — some key
	// is currently transaction-locked on this replica, or has a
	// transaction-installed version newer than the pin. The shard layer's
	// consistent-cut rule turns this into a chase or fallback.
	readFlagCrossed = wire.ReadFlagCrossed
)

// tagResponse flag bits.
const (
	// respFlagParked: the request parked in the transaction wait queue and
	// its result was produced at lock release — i.e. an ordered read that
	// actually crossed a transaction. Parking is a deterministic property
	// of the ordered execution, so correct replicas agree on it and the
	// client's f+1 match vouches for the flag (it lives inside the response
	// class key).
	respFlagParked = wire.RespFlagParked
)

// pinnedReadCap bounds the queue of pinned reads parked while execution
// catches up to their pin (a pin is at most one fast-read round-trip ahead
// of the slowest correct replica, so entries drain within a round).
const pinnedReadCap = 512

// readBacklogCap bounds the fast reads waiting for a core (readLanes.waiting)
// and, until the first fast read, the ordered reads queued on the read core.
// At a KV read's charged ~14.7 µs (its execution and both dispatches) the cap
// is about 0.47 ms of work while both cores drain it and 0.94 ms while the
// pool is busy with crypto, so a reply behind a fuller queue would come too
// late to count against the read timeout: past the cap a fast read is refused
// instead, and its client widens or falls back at once, and an ordered read
// runs on the main process.
const readBacklogCap = 64

// pinnedRead is one as-of read waiting for this replica's execution to
// reach its pin.
type pinnedRead struct {
	from    ids.ID
	num     uint64
	at      Slot
	payload []byte
}

// readReply is one read's reply frame, its client and what the core that
// serves it is charged: the read's execution and the post of its reply.
type readReply struct {
	to    ids.ID
	frame []byte
	cost  sim.Duration
}

// readQueue is a FIFO of read replies: replies[head:] wait, oldest first,
// kept at the head of one backing array.
type readQueue struct {
	replies []readReply
	head    int
}

// len is how many replies wait.
func (q *readQueue) len() int { return len(q.replies) - q.head }

// push queues rep behind the others.
func (q *readQueue) push(rep readReply) {
	if len(q.replies) == cap(q.replies) && q.head > 0 {
		// Keep the queue at the head of the same backing array.
		n := copy(q.replies, q.replies[q.head:])
		clear(q.replies[n:])
		q.replies, q.head = q.replies[:n], 0
	}
	q.replies = append(q.replies, rep)
}

// pop takes the oldest reply out.
func (q *readQueue) pop() readReply {
	rep := q.replies[q.head]
	q.replies[q.head] = readReply{}
	if q.head++; q.head == len(q.replies) {
		q.replies, q.head = q.replies[:0], 0
	}
	return rep
}

// readLanes are a replica's two off-main cores that serve reads, the read
// core and the crypto pool, and the one FIFO of fast reads neither has
// started. A core is charged each read it starts, the post of its reply
// included, and posts the reply once it has spent it, so a read neither
// waits for the main process nor makes it wait.
type readLanes struct {
	r          *Replica
	core, pool *sim.Proc
	// onCore is the replies the read core has been charged for, oldest
	// first: ordered reads (applyOne, until the first fast read) and the
	// fast read it executes. onPool is the one fast read the pool executes
	// (frame nil: none).
	onCore readQueue
	onPool readReply
	// waiting is the fast reads neither core has started, oldest first.
	waiting readQueue
	// wake is the timer that restarts the lanes when the pool's crypto job
	// ends while reads wait (startWaiting).
	wake sim.Timer
	// coreDone, poolDone and restart are coreFinished, poolFinished and
	// startWaiting, bound once.
	coreDone, poolDone, restart func()
}

// init binds the lanes to their replica and their cores.
func (l *readLanes) init(r *Replica, core, pool *sim.Proc) {
	l.r, l.core, l.pool = r, core, pool
	l.coreDone, l.poolDone, l.restart = l.coreFinished, l.poolFinished, l.startWaiting
}

// toCore queues rep on the read core, charged from when the read is handed
// over, which may lie past now (an ordered read the main process is still
// dispatching).
func (l *readLanes) toCore(rep readReply, from sim.Time) {
	l.onCore.push(rep)
	l.core.ExecFrom(from, rep.cost, l.coreDone)
}

// coreFinished is the read core spending its oldest read: it posts the reply,
// which leaves now (transport.Endpoint.Send), and the freed cores take the
// oldest waiting reads.
func (l *readLanes) coreFinished() {
	rep := l.onCore.pop()
	l.r.rt.SendFrame(rep.to, rep.frame)
	l.startWaiting()
}

// poolFinished is the pool spending its read, as coreFinished.
func (l *readLanes) poolFinished() {
	rep := l.onPool
	l.onPool = readReply{}
	l.r.rt.SendFrame(rep.to, rep.frame)
	l.startWaiting()
}

// startWaiting starts the oldest waiting fast reads on the cores that are
// free. It runs whenever a read arrives, a core finishes one or the pool's
// crypto job ends with reads waiting (wake), so a read waits only while both
// cores are busy. The read core is free once it has spent every read it was
// charged; the pool while it holds no read and no crypto job, so it never
// holds two reads and a signature submitted later waits at most one. On a
// realtime host the read core is never busy, so the pool never serves a read.
func (l *readLanes) startWaiting() {
	now := l.core.Now()
	if l.waiting.len() > 0 && l.core.BusyUntil() <= now {
		l.toCore(l.waiting.pop(), now)
	}
	if l.waiting.len() == 0 || l.onPool.frame != nil {
		return
	}
	if busy := l.pool.BusyUntil(); busy <= now {
		l.onPool = l.waiting.pop()
		l.pool.Exec(l.onPool.cost, l.poolDone)
	} else if !l.wake.Pending() {
		l.wake = l.pool.After(busy.Sub(now), l.restart)
	}
}

// onRPC handles client traffic arriving at a replica.
func (r *Replica) onRPC(from ids.ID, payload []byte) {
	rd := wire.NewReader(payload)
	switch rd.U8() {
	case tagRequest:
		r.onClientRequest(from, rd)
	case tagReadRequest:
		r.onReadRequest(from, rd)
	}
}

// onClientRequest handles an ordered (write-path) client request.
func (r *Replica) onClientRequest(from ids.ID, rd *wire.Reader) {
	if r.observing() {
		// Observe-only window: no echoes, no proposals. Dropping (rather
		// than storing) is deliberate — the other 2f replicas hold the
		// client's copy and decide it, but it would execute below this
		// replica's rejoin snapshot, so a stored copy here would never be
		// marked executed and would read as permanently stalled work,
		// feeding the suspicion timer spurious view changes after resume.
		return
	}
	req := decodeRequest(rd)
	if rd.Done() != nil || req.IsNoOp() || len(req.Payload) > r.cfg.MsgCap {
		return // malformed, or too large for any PREPARE to carry
	}
	if req.Client != from {
		return // authenticated links: a client cannot impersonate another
	}
	if c := r.executedBy(req.Client, req.Num); c != nil {
		// Retransmission of an executed request: re-send the cached result.
		// Only the most recent request's result is cached; a parked
		// request's response arrives when the blocking transaction
		// resolves, and older requests were answered at execution — never
		// re-send another request's bytes for them.
		if c.num == req.Num && !c.pending {
			// Re-send with the original execution slot: the client's f+1
			// match covers (result, slot), so a retransmission must land
			// in the same class as the first-execution responses.
			r.respond(req.Client, req.Num, c.slot, c.res, c.parked)
		}
		return
	}
	dg := r.digest(&req)
	r.proc.Charge(latmodel.DigestCost(len(req.Payload)))
	rs := r.request(dg)
	if rs.held {
		return
	}
	rs.req, rs.held = req, true

	// Unblock any PREPARE waiting for this request's endorsement (batch
	// containers become endorsable once their last sub-request arrives).
	r.releaseParked()

	if r.IsLeader() {
		r.noteEcho(dg, r.cfg.Self)
	} else {
		// Echo toward the leader (Fig 4, "Echo Req").
		r.sendEcho(dg)
	}
	r.armProgressTimer()
}

// onReadRequest serves the unordered read fast path: execute the read
// tentatively — against this replica's last-applied state (unpinned), or
// as-of the exact version the request pins (at > 0) — and reply with the
// result plus the state version (LastApplied) execution has reached. The
// read never touches the ordering pipeline — no digest, no echo, no slot.
// A read request is taken the instant it arrives (the endpoint's intake,
// isReadRequest), whatever the main process is busy with: the result and
// LastApplied are read together then, and the reply goes to the read lanes
// (serveRead), whose core is charged the read and both its dispatches.
// Requests the application cannot answer read-only (no ReadExecutor
// capability, a write opcode, a pin below the MVCC GC horizon) are refused
// explicitly so the client falls back without waiting out its timeout.
func (r *Replica) onReadRequest(from ids.ID, rd *wire.Reader) {
	num := rd.U64()
	at := Slot(rd.U64())
	payload := rd.BytesView()
	if rd.Done() != nil {
		r.proc.Charge(latmodel.DispatchCost) // its receipt
		return
	}
	if r.observing() {
		// Refuse explicitly while rejoining: our state is mid-transfer, and
		// an explicit refusal lets the client complete its quorum from the
		// 2f live replicas (or fall back) instead of waiting out a timeout.
		r.refuseRead(from, num)
		return
	}
	if at > 0 {
		r.serveReadAt(from, num, at, payload)
		return
	}
	if re, ok := r.cfg.App.(app.ReadExecutor); ok {
		if res, readable := re.ApplyRead(payload); readable {
			r.serveRead(from, num, readFlagServed, res, payload)
			return
		}
	}
	r.refuseRead(from, num)
}

// serveReadAt answers a read pinned to an exact state version from the
// application's MVCC store. A replica whose execution has not yet reached
// the pin parks the read in a bounded queue drained as slots apply (the pin
// came from a version some replica already reached, so the wait is one
// replication delay, not unbounded); everything else it cannot serve — no
// versioning capability, a pin below the GC horizon, a non-read request, a
// full queue — is refused immediately so the client can fall back.
func (r *Replica) serveReadAt(from ids.ID, num uint64, at Slot, payload []byte) {
	if r.appVerRead == nil {
		r.refuseRead(from, num)
		return
	}
	if r.lastApplied < at {
		if len(r.pinnedReads) >= pinnedReadCap {
			r.refuseRead(from, num)
			return
		}
		// The request frame is immutable once sent: park a view of it.
		r.pinnedReads = append(r.pinnedReads, pinnedRead{from: from, num: num, at: at, payload: payload})
		return
	}
	res, crossed, ok := r.appVerRead.ApplyReadAt(payload, uint64(at))
	if !ok {
		r.refuseRead(from, num)
		return
	}
	flags := readFlagServed
	if crossed {
		flags |= readFlagCrossed
	}
	r.serveRead(from, num, flags, res, payload)
}

// drainPinnedReads serves parked pinned reads whose pin execution has
// reached (called after every execution batch).
func (r *Replica) drainPinnedReads() {
	if len(r.pinnedReads) == 0 {
		return
	}
	kept := r.pinnedReads[:0]
	for _, pr := range r.pinnedReads {
		if r.lastApplied < pr.at {
			kept = append(kept, pr)
			continue
		}
		r.serveReadAt(pr.from, pr.num, pr.at, pr.payload)
	}
	for i := len(kept); i < len(r.pinnedReads); i++ {
		r.pinnedReads[i] = pinnedRead{} // release parked payloads
	}
	r.pinnedReads = kept
}

// readReplyFrame encodes one fast-read reply into a reply frame (replyFrame),
// which copies result, an answer the application's next call may overwrite.
// The version field carries lastApplied as of this call, the instant the
// result was read — for a pinned read the RESULT is as-of the pin, but the
// version still teaches the client how far this replica has executed (its
// frontier input).
func (r *Replica) readReplyFrame(num uint64, flags uint8, result []byte) []byte {
	return replyFrame(Reply{Tag: tagReadResponse, Num: num, At: uint64(r.lastApplied), Flags: flags, Result: result})
}

// refuseRead sends a refusal from the main process, which is charged the
// request's receipt and the refusal's post.
func (r *Replica) refuseRead(to ids.ID, num uint64) {
	r.proc.Charge(latmodel.DispatchCost)
	r.rt.SendFrame(to, r.readReplyFrame(num, 0, nil))
}

// isReadRequest reports whether frame is a read request, which a replica's
// endpoint takes on arrival (transport.Endpoint.SetIntake).
func isReadRequest(frame []byte) bool {
	return len(frame) > 1 && frame[0] == router.ChanRPC && frame[1] == tagReadRequest
}

// serveRead queues the reply of a read executed at this instant behind the
// fast reads waiting for a core (readLanes), and the free cores start the
// oldest: the read core first, then the crypto pool. The core that takes the
// read is charged its execution and both dispatches, the request's and the
// reply's, and then posts the reply. A full queue of waiting reads refuses
// the read instead. From the first fast read on, ordered reads stay on the
// main process (applyOne).
func (r *Replica) serveRead(to ids.ID, num uint64, flags uint8, result, payload []byte) {
	r.servesFastReads = true
	if r.reads.waiting.len() >= readBacklogCap {
		r.refuseRead(to, num)
		return
	}
	r.ReadsServed++
	r.reads.waiting.push(readReply{to: to, frame: r.readReplyFrame(num, flags, result), cost: r.cfg.App.ExecCost(payload) + latmodel.AppExecBase + 2*latmodel.DispatchCost})
	r.reads.startWaiting()
}

// echoLen is the length of an echo frame: channel tag, message tag, digest.
const echoLen = 2 + xcrypto.DigestLen

// appendEcho appends the echo of a request digest to buf as a whole frame,
// channel tag first.
func appendEcho(buf []byte, dg [xcrypto.DigestLen]byte) []byte {
	return append(append(buf, router.ChanDirect, tagEcho), dg[:]...)
}

// sendEcho sends one digest echo to the leader, in a frame from the router's
// free list that the leader releases once read (onDirect).
func (r *Replica) sendEcho(dg [xcrypto.DigestLen]byte) {
	r.rt.SendFrame(r.cfg.leaderOf(r.view), appendEcho(router.Frame(echoLen)[:0], dg))
}

// onEcho records a follower's echo at the leader.
func (r *Replica) onEcho(from ids.ID, rd *wire.Reader) {
	var dg [xcrypto.DigestLen]byte
	copy(dg[:], rd.RawView(xcrypto.DigestLen))
	if rd.Done() != nil || r.cfg.indexOf(from) < 0 || r.observing() {
		return
	}
	r.noteEcho(dg, from)
}

// noteEcho tracks who holds the request; the leader proposes once every
// follower echoed, or after EchoTimeout (a Byzantine client that sent its
// request to only some replicas cannot stall the system, §5.4).
func (r *Replica) noteEcho(dg [xcrypto.DigestLen]byte, from ids.ID) {
	if !r.IsLeader() {
		return
	}
	rs := r.request(dg)
	if rs.proposed {
		return
	}
	rs.echoes |= r.voteBit(from)
	if !rs.held {
		return // echo arrived before the client's own copy
	}
	if r.noEchoWait || rs.echoes == r.fullVote() {
		r.finishEcho(rs)
		return
	}
	if !rs.echoTimer.Pending() {
		// A pending timer's record is alive: only closeEchoRound, which
		// cancels it, lets the record go.
		rs.echoTimer = r.proc.AfterH(EchoTimeout, rs)
	}
}

// echoTimedOut is a request record's EchoTimeout: propose without the
// missing echoes.
func (r *Replica) echoTimedOut(rs *reqState) {
	if rs.held {
		r.finishEcho(rs)
	}
}

func (r *Replica) finishEcho(rs *reqState) {
	rs.closeEchoRound()
	r.enqueueProposal(rs.req)
}

// rebroadcastPending re-routes known-but-unexecuted client requests after a
// view change: followers echo them to the new leader, the new leader
// enqueues its own copies. Without this, requests echoed to a crashed
// leader would be lost until the client retransmits.
func (r *Replica) rebroadcastPending() {
	// Digest order over the records that hold a client copy: the
	// re-echo/re-proposal sequence is part of the deterministic trace.
	for _, dg := range sortedDigests(r.requests) {
		rs := r.requests[dg]
		if rs == nil || !rs.held || !r.shouldRebroadcast(rs) {
			continue
		}
		if r.IsLeader() {
			// A stale undecided proposal from a previous view is being
			// re-routed as fresh work: drop its dedup stub so noteEcho and
			// enqueueProposal do not swallow the re-proposal. If the old
			// slot later decides anyway, exactly-once execution dedups the
			// second copy.
			rs.proposed = false
			r.noteEcho(dg, r.cfg.Self)
		} else {
			r.sendEcho(dg)
		}
	}
}

// shouldRebroadcast reports whether a held client request still needs
// re-routing toward the (new) leader. A request is settled only when its
// proposal actually decided (or fell below the stable checkpoint, which
// implies decided), or when THIS exact request executed: an echo-ordering
// inversion leaves a lower-numbered, never-executed request held while the
// client's executed high-water mark has moved past it, and a view change at
// that moment must not skip its one rebroadcast (the client would wedge).
func (r *Replica) shouldRebroadcast(rs *reqState) bool {
	if rs.proposed {
		return rs.slot >= r.chkpt.Seq && !r.isDecided(rs.slot)
	}
	return !r.executed(rs.req.Client, rs.req.Num)
}

// respond sends an execution result back to the client.
func (r *Replica) respond(client ids.ID, reqNum uint64, slot Slot, result []byte, parked bool) {
	r.rt.SendFrame(client, responseFrame(reqNum, slot, result, parked))
}

// responseFrame encodes the reply to an ordered request that executed at
// slot into a reply frame (replyFrame), which copies result.
func responseFrame(reqNum uint64, slot Slot, result []byte, parked bool) []byte {
	var flags uint8
	if parked {
		flags |= respFlagParked
	}
	return replyFrame(Reply{Tag: tagResponse, Num: reqNum, At: uint64(slot), Flags: flags, Result: result})
}

// Reply is a replica's answer to a client: to an ordered request
// (TagResponse; At is the slot it executed at) or to a fast read
// (TagReadResponse; At is how far the replica had executed).
type Reply struct {
	Tag    uint8
	Num    uint64
	At     uint64
	Flags  uint8
	Result []byte
}

// replyLen is the length of a reply frame whose result is n bytes long.
func replyLen(n int) int { return 3 + 16 + wire.BytesLen(n) }

// appendReply appends rep to dst as a whole frame, channel tag first.
func appendReply(dst []byte, rep Reply) []byte {
	w := wire.WriterOn(dst)
	w.U8(router.ChanRPC)
	w.U8(rep.Tag)
	w.U64(rep.Num)
	w.U64(rep.At)
	w.U8(rep.Flags)
	w.Bytes(rep.Result)
	return w.Finish()
}

// replyFrame encodes a replica's reply into a frame from the router's free
// list, sent once, to its one client, which releases it unless it hands the
// result to its caller (Client.onRPC).
func replyFrame(rep Reply) []byte {
	return appendReply(router.Frame(replyLen(len(rep.Result)))[:0], rep)
}

// EncodeReply encodes rep as a frame, channel tag first, into a fresh slice
// of exact size.
func EncodeReply(rep Reply) []byte {
	return appendReply(make([]byte, 0, replyLen(len(rep.Result))), rep)
}

// ParseReply decodes a reply, channel tag stripped, in borrow mode: Result is
// a view of payload, good for as long as its reply frame is. ok is false for
// anything but a well-formed reply.
func ParseReply(payload []byte) (Reply, bool) {
	rd := wire.NewReader(payload)
	tag := rd.U8()
	num, at, flags := rd.U64(), rd.U64(), rd.U8()
	result := rd.BytesView()
	if tag != tagResponse && tag != tagReadResponse || rd.Done() != nil {
		return Reply{}, false
	}
	return Reply{Tag: tag, Num: num, At: at, Flags: flags, Result: result}, true
}

// Client is a uBFT client: it fires unsigned requests at every replica of
// the target consensus group (unordered reads: at f+1 of them first) and
// accepts a result confirmed by f+1 of them.
// A client may address several independent groups (the sharded deployment):
// all groups share one request-number sequence, so each group sees a
// strictly increasing subsequence of numbers.
type Client struct {
	rt     *router.Router
	proc   *sim.Proc
	groups [][]ids.ID
	f      int

	nextNum uint64
	// calls holds every call in flight under each number its replies carry:
	// an ordered call under its one number, a read under its own and, once it
	// falls back, under its ordered request's too. free keeps completed and
	// cancelled calls' records for the next ones: it holds at most the peak
	// number of calls in flight.
	calls map[uint64]*call
	free  wire.FreeList[call]

	// readFloor is, per group, the monotonic read floor: the lowest state
	// version a fast read may be answered at — ratcheted by every accepted
	// read AND every ordered response, which is what gives one client
	// monotonic reads and read-your-writes across the two paths.
	readFloor []Slot
	// readSuspect is, per group, the replicas (bitmask of indices) passed
	// over when a read picks its first f+1 targets. A replica joins when a
	// read it was asked on the first rung had to widen and was then accepted
	// without its vote; it leaves when one of its replies lands in an
	// accepted class. So a crashed, refusing, lagging or lying replica costs
	// this client one widen, not one per read; widened reads and a sparse
	// probe (readProbeEvery) keep reaching it. readProbe is, per group, the
	// last accepted probe read a passed-over replica had not answered yet:
	// its late reply is held to that read's accepted class.
	readSuspect []uint64
	readProbe   []probeRead
	// readsOut is, per group and replica index (readLoad), how many of this
	// client's reads on an unordered rung await that replica's reply: a
	// read's first rung asks the trusted replicas with the fewest. A read
	// counts where its call awaits, from sendRead until the replica's reply
	// is taken or the read leaves the unordered rungs.
	readsOut []int

	// Read fast path stats.
	FastReads     uint64 // reads answered by an f+1 unordered quorum
	StrongReads   uint64 // reads answered by a 2f+1 strong quorum
	ReadWidens    uint64 // reads that had to ask the rest of the group
	ReadFallbacks uint64 // reads that fell back to the ordered path

	// slab is the blocks the client carves its request frames from: a frame
	// is never written once sent, and replicas keep views of it.
	slab wire.Slab
}

// Mode says how a call is served. The zero Mode is an ordered call: the
// group decides the request at one slot and every replica executes it
// there. Read sends it to the unordered read fast path instead (see Call);
// Strong and At qualify a read only.
type Mode struct {
	Read bool
	// Strong requires ALL 2f+1 replicas to agree instead of f+1: any write
	// that completed before the read began executed on at least f+1
	// replicas, so the whole-group quorum includes one that applied it and
	// the accepted version cannot predate the write (linearizability).
	Strong bool
	// With At == 0 the read is unpinned: only replies at state version >=
	// this client's monotonic floor for the group count toward the quorum.
	// With At > 0 it is pinned: every replica answers as-of exactly that
	// version from its MVCC store, so the matching digests attest the value
	// AT the pin regardless of replica skew.
	At Slot
}

// Outcome is what a call resolved to, as CallAt reports it.
type Outcome struct {
	// Result is a view of the accepted reply frame, which the client never
	// releases: it may be kept as long as the caller likes, never written.
	Result []byte
	// Slot is the version the accepted result was read at; Frontier is the
	// highest version ANY reply revealed, the input for choosing pins. An
	// ordered result reports, as both, the client's read floor after it or a
	// fallen-back read's frontier if higher, so a scatter-gather caller
	// never retries an ordered leg.
	Slot, Frontier Slot
	// Crossed is whether the result may have crossed a transaction: for a
	// read quorum the OR of the replicas' txn-crossed flags, for an ordered
	// result the quorum-vouched parked marker. It is the shard layer's
	// consistent-cut signal: a clean (uncrossed) pinned leg provably did not
	// straddle any cross-shard transaction that committed before the pin
	// round began, and only a leg that parked behind one needs revalidating.
	Crossed bool
	// FellBack is whether a read resolved through the ordered path.
	FellBack bool
	Latency  sim.Duration
}

// resTally accumulates one result class of a pending request: the vote
// count, the result bytes, and the LOWEST slot/version the class reported.
//
// On the ordered path the class key covers (result, slot, parked) together
// — correct replicas are deterministic state machines that execute a
// request at one agreed slot (and park it, or not, deterministically), so
// they all land in one class, while a replica lying about the result, the
// slot or the parked marker forms its own class that can never reach f+1
// without f+1 colluders. The winning class's slot is therefore
// quorum-vouched in full: it can neither be inflated (which would poison
// the read floor and permanently deny the fast-read path) nor deflated
// (which would quietly weaken read-your-writes); ditto the parked marker,
// which drives the shard layer's revalidation decision.
//
// On the read path versions stay OUTSIDE the class key — the whole point
// is accepting the same value read at different versions — and the floor
// ratchets from the class minimum, which is bounded below by the read's
// own floor (stale replies are never counted), so a lone Byzantine replica
// can at worst keep the floor where it already was. The crossed flag is
// OR'd across the counted replies of the class instead: any correct
// replica that saw the read straddle a transaction taints the accepted
// result, which can cost a needless chase round but never hide one.
type resTally struct {
	key     uint64 // the class key: the result checksum, mixed as the path needs
	count   int
	frame   []byte // the last counted reply frame, which the class holds
	result  []byte // a view of frame
	minSlot Slot
	crossed bool   // the parked marker (ordered, in the key) or the OR of txn-crossed flags (read)
	voters  uint64 // read path: the replica indices counted
}

// add counts one reply whose result is a view of frame: the class holds
// frame from now on and releases the frame it held before.
func (t *resTally) add(frame, result []byte, slot Slot, crossed bool) {
	if t.frame != nil {
		router.Release(t.frame)
	}
	t.count++
	t.frame, t.result = frame, result
	t.crossed = t.crossed || crossed
	if t.count == 1 || slot < t.minSlot {
		t.minSlot = slot
	}
}

// tallies is one call's result classes. A replica's reply is counted once,
// in one class, so there are at most as many classes as replicas: a short
// slice searched by key, reused with its record.
type tallies []resTally

// of returns the class with the given key, opening it if absent. The
// pointer is good until the next call.
func (ts *tallies) of(key uint64) *resTally {
	for i := range *ts {
		if (*ts)[i].key == key {
			return &(*ts)[i]
		}
	}
	*ts = append(*ts, resTally{key: key})
	return &(*ts)[len(*ts)-1]
}

// reset empties the classes and releases the reply frames they hold.
func (ts *tallies) reset() {
	for _, t := range *ts {
		if t.frame != nil {
			router.Release(t.frame)
		}
	}
	clear(*ts)
	*ts = (*ts)[:0]
}

// call tracks one call in flight: an ordered request, or a read on the
// ladder, whose last rung is an ordered request of its own.
type call struct {
	// num is the caller's handle. ordNum is the number of the call's ordered
	// request: num itself for an ordered call, and 0 for a read until it
	// falls back.
	num, ordNum uint64
	group       int
	payload     []byte
	mode        Mode // At as the read currently stands
	minSlot     Slot // lowest version a read reply counts at: the read floor, 0 once pinned
	started     sim.Time
	// contacted and replied are bitmasks of replica indices: who was sent
	// the read, and whose (one) reply was taken. A Byzantine replica may
	// answer unasked, so replied is not a subset of contacted.
	contacted uint64
	replied   uint64
	// firstRung is who had been asked when the read widened (0: it has
	// not): the replicas to pass over if it is accepted without them.
	firstRung uint64
	// awaits is the replicas whose reply the read awaits, each counted once
	// in the client's readsOut.
	awaits uint64
	// byRes tallies the counted replies per result class (see resTally). A
	// read counts only fresh (version >= minSlot) replies, so a class
	// minimum is bounded below by the floor; best is its largest class.
	byRes tallies
	best  int
	// frontier is the highest version ANY read reply carried — advisory
	// input to the scatter-gather snapshot pinning and the strong read's
	// second round only (a forged frontier costs at most futile pin rounds
	// before the ordered fallback); it never ratchets the persistent floor.
	frontier Slot
	timer    sim.Timer
	c        *Client // the record's client: the record is timer's Handler
	// The caller's callback, in the form it was given: exactly one is set.
	done   func(result []byte, latency sim.Duration)
	doneAt func(Outcome)
}

// Fire is timer's expiry: the read climbs a rung (escalate).
func (p *call) Fire() { p.c.escalate(p) }

// defaultReadTimeout bounds how long a fast read waits for its quorum
// before falling back to the ordered path. Generous against queueing at
// saturation (a fast read round trip is tens of microseconds), small
// against the fallback's own consensus latency. The first f+1 replicas get
// half of it before the rest of the group is asked.
const defaultReadTimeout = 500 * sim.Microsecond

// readProbeEvery: a read whose request number is a multiple of this also
// asks one passed-over replica (readSuspect), without waiting for it, so a
// replica that recovered is found even when no read widens.
const readProbeEvery = 64

// probeRead is what an accepted probe read leaves behind for the reply it
// did not wait for: the request number, the accepted class and the lowest
// version that counted.
type probeRead struct {
	num, key uint64
	minSlot  Slot
}

// NewClient wires a single-group client onto its host router.
func NewClient(rt *router.Router, replicas []ids.ID) *Client {
	return NewMultiClient(rt, [][]ids.ID{replicas})
}

// NewMultiClient wires a client that can invoke any of several replica
// groups through one router. The shard layer uses this to reach every
// consensus group from one host. Every group has the first's size, 2f+1,
// which fixes f as Config.f does.
func NewMultiClient(rt *router.Router, groups [][]ids.ID) *Client {
	if len(groups) == 0 {
		panic("consensus: client needs at least one replica group")
	}
	c := &Client{
		rt:          rt,
		proc:        rt.Node().Proc(),
		groups:      groups,
		f:           (len(groups[0]) - 1) / 2,
		calls:       make(map[uint64]*call),
		readFloor:   make([]Slot, len(groups)),
		readSuspect: make([]uint64, len(groups)),
		readProbe:   make([]probeRead, len(groups)),
		readsOut:    make([]int, len(groups)*len(groups[0])),
	}
	rt.RegisterFrame(router.ChanRPC, c.onRPC)
	return c
}

// Proc returns the client host's simulated process, for layers that put
// their own timers on that host (the shard-aware client).
func (c *Client) Proc() *sim.Proc { return c.proc }

// ReadFloor exposes the per-group monotonic read floor (the lowest state
// version a fast read may be answered at) — the Byzantine harness and the
// adversarial fuzz targets assert a hostile reply can never inflate it.
func (c *Client) ReadFloor(group int) Slot { return c.readFloor[group] }

// Invoke submits payload to group 0 for replicated execution; done receives
// the f+1-confirmed result and the end-to-end latency.
func (c *Client) Invoke(payload []byte, done func(result []byte, latency sim.Duration)) uint64 {
	return c.Call(0, payload, Mode{}, done)
}

// Call submits payload to the given replica group as mode says; done fires
// exactly once with the accepted result and the end-to-end latency (widen
// and fallback included), unless the call is cancelled. The result is a
// view of the one reply frame the client never releases: the callee may keep
// it as long as it likes, but must never write into it. Every other reply
// frame a replica of the client's groups sends goes back to the router's free
// list (onRPC), so nothing else of a reply outlives the call.
//
// An ordered call is accepted on f+1 matching replies. A read (mode.Read)
// climbs the ladder this file opens with: one round trip to f+1 of the
// 2f+1 replicas, accepted on f+1 matching result digests at a compatible
// state version; a reply that cannot join that quorum or a missed widen
// deadline brings in the rest of the group under the same request number;
// mismatch across the whole group, the read timeout or a
// transaction-locked key fall back transparently to the ordered path. A
// strong read enters at rung 2 (the whole group at once). Round one samples
// every replica unpinned; if they answer at one common version the read is
// done in one round trip. Otherwise the replicas are skewed: round two
// re-reads, under the same number, pinned at the highest version round one
// revealed, which every correct replica serves once its execution catches
// up (MVCC apps only).
//
// The returned request number is the call's handle: Cancel(num) abandons
// it, which is how the cross-shard coordinator withdraws prepares from a
// group that timed out.
func (c *Client) Call(group int, payload []byte, mode Mode, done func(result []byte, latency sim.Duration)) uint64 {
	return c.start(group, payload, mode, done, nil)
}

// CallAt is Call reporting the whole Outcome: the version the result was
// read at, the group frontier, the crossed marker and whether a read fell
// back. The shard layer's snapshot-consistent scatter-gather builds on it.
// Outcome.Result is, as Call's result, a view of the one reply frame the
// client hands out and never releases.
func (c *Client) CallAt(group int, payload []byte, mode Mode, done func(Outcome)) uint64 {
	return c.start(group, payload, mode, nil, done)
}

// start opens a record for a call and sends it: an ordered call to the whole
// group, a read on its first rung (f+1 replicas), or straight at rung 2 (the
// whole group) when the read is strong or too few replicas are trusted to
// form a first rung. Exactly one of done and
// doneAt is set.
func (c *Client) start(group int, payload []byte, mode Mode, done func([]byte, sim.Duration), doneAt func(Outcome)) uint64 {
	p := c.free.Get()
	if p == nil {
		p = &call{c: c, byRes: make(tallies, 0, 2*c.f+1)}
	}
	p.group, p.payload, p.mode, p.started, p.done, p.doneAt = group, payload, mode, c.proc.Now(), done, doneAt
	if !mode.Read {
		c.order(p)
		p.num = p.ordNum
		return p.num
	}
	c.nextNum++
	num := c.nextNum
	p.num = num
	c.calls[num] = p
	if mode.At == 0 { // a pinned read's as-of replies are fresh at any version
		p.minSlot = c.readFloor[group]
	}

	to := c.groupMask(group)
	if suspect := c.readSuspect[group]; !mode.Strong && len(c.groups[group])-bits.OnesCount64(suspect) >= c.f+1 {
		to = c.firstRung(group, num, suspect)
	}
	c.sendRead(p, to)
	return num
}

// firstRung is the replicas read num asks first: the f+1 trusted ones with
// the fewest of this client's reads outstanding (readsOut), ties in rotation
// order from the request number (no random draw: the seeded stream other
// code consumes does not shift), plus, on a probe read, the first
// passed-over one in that order. With no read outstanding, as at depth 1, it
// is the first f+1 trusted replicas in rotation order.
func (c *Client) firstRung(group int, num, suspect uint64) uint64 {
	n, load := uint64(len(c.groups[group])), c.readLoad(group)
	var to uint64
	for want := c.f + 1; want > 0; want-- {
		pick := -1
		for i := uint64(0); i < n; i++ {
			j := int((num + i) % n)
			if (suspect|to)&(1<<j) == 0 && (pick < 0 || load[j] < load[pick]) {
				pick = j
			}
		}
		to |= 1 << pick
	}
	if num%readProbeEvery == 0 {
		for i := uint64(0); i < n; i++ {
			if bit := uint64(1) << ((num + i) % n); suspect&bit != 0 {
				return to | bit
			}
		}
	}
	return to
}

// readLoad is group's slice of readsOut, one count per replica index.
func (c *Client) readLoad(group int) []int {
	n := len(c.groups[0])
	return c.readsOut[group*n : (group+1)*n]
}

// await counts p's read at the replicas in to it does not await yet.
func (c *Client) await(p *call, to uint64) {
	load := c.readLoad(p.group)
	for add := to &^ p.awaits; add != 0; add &= add - 1 {
		load[bits.TrailingZeros64(add)]++
	}
	p.awaits |= to
}

// settle stops counting p's read at the replicas in done.
func (c *Client) settle(p *call, done uint64) {
	load := c.readLoad(p.group)
	for rm := p.awaits & done; rm != 0; rm &= rm - 1 {
		load[bits.TrailingZeros64(rm)]--
	}
	p.awaits &^= done
}

// order submits p's payload as an ordered request under the next number,
// p.ordNum, and files p under it. One frame, channel tag first, of exact
// size and carved from the client's blocks, goes to every replica: immutable
// once sent, so replicas may retain views of it.
func (c *Client) order(p *call) {
	c.nextNum++
	p.ordNum = c.nextNum
	c.calls[p.ordNum] = p
	req := Request{Client: c.rt.ID(), Num: p.ordNum, Payload: p.payload}
	w := wire.WriterOn(c.slab.Take(requestFrameLen(len(p.payload)))[:0])
	w.U8(router.ChanRPC)
	w.U8(tagRequest)
	req.encode(&w)
	frame := w.Finish()
	for _, rep := range c.groups[p.group] {
		c.rt.SendFrame(rep, frame)
	}
}

// requestFrameLen is the length of an ordered or read request frame carrying
// a payload of n bytes: channel tag, message tag, two 8-byte fields (client
// and number, or number and pin) and the payload.
func requestFrameLen(n int) int { return 2 + 16 + wire.BytesLen(n) }

// Cancel abandons the call whose handle is num: late replica responses are
// ignored and its callback never fires. It reports whether the call was
// still pending. The request itself may still be (or become) decided and
// executed by the group — Cancel gives up on observing the outcome, it
// cannot recall the submission. A read keeps its handle on every rung
// (widened, strong pin round, ordered fallback), so cancelling it abandons
// whichever is in flight.
func (c *Client) Cancel(num uint64) bool {
	p := c.calls[num]
	if p == nil || p.num != num {
		return false
	}
	c.drop(p)
	return true
}

// drop forgets call p and keeps its record for the next call.
func (c *Client) drop(p *call) {
	c.settle(p, p.awaits)
	delete(c.calls, p.num)
	delete(c.calls, p.ordNum)
	p.timer.Cancel()
	p.byRes.reset()
	*p = call{c: c, byRes: p.byRes}
	c.free.Put(p)
}

// finish drops call p and hands the accepted class t's result to the
// caller. The result is a view of t's reply frame, which leaves the class
// unreleased while drop releases every other frame the call holds, so the
// callback may keep it and start the next call on the same record.
func (c *Client) finish(p *call, t *resTally, slot Slot) {
	o := Outcome{Result: t.result, Slot: slot, Frontier: p.frontier, Crossed: t.crossed,
		FellBack: p.mode.Read && p.ordNum != 0, Latency: c.proc.Now().Sub(p.started)}
	t.frame = nil
	done, doneAt := p.done, p.doneAt
	c.drop(p)
	if done != nil {
		done(o.Result, o.Latency)
	} else {
		doneAt(o)
	}
}

// PendingCount reports how many requests await confirmation, ordered and
// fast-read alike (bounded-memory diagnostics: abandoned requests must not
// accumulate here). A read in its fallback phase counts twice — once for
// the read handle, once for its ordered request — until it resolves.
func (c *Client) PendingCount() int { return len(c.calls) }

// onRPC takes one reply frame, channel tag first. A reply a call counts is
// held by its result class (resTally) until a newer reply of the class, a
// reset of the call's classes or the call's end releases it, unless the call
// hands it to its caller. Every other reply (late, duplicate, stale, refused
// or malformed) is released at once if a replica of this client's groups
// sent it: as swmr does with completions, the client releases only frames
// whose sender it knows draws them from the free list (replyFrame).
func (c *Client) onRPC(from ids.ID, frame []byte) {
	_, payload := router.Split(frame)
	rep, ok := ParseReply(payload)
	counted := false
	switch {
	case !ok:
	case rep.Tag == tagResponse:
		counted = c.onResponse(from, frame, rep)
	default:
		counted = c.onReadResponse(from, frame, rep)
	}
	if !counted && c.member(from) {
		router.Release(frame)
	}
}

// member reports whether id is a replica of one of the client's groups.
func (c *Client) member(id ids.ID) bool {
	for g := range c.groups {
		if c.replicaIndex(id, g) >= 0 {
			return true
		}
	}
	return false
}

// onResponse counts one replica's reply to an ordered request, under the
// call's ordered number only, and reports whether it did.
func (c *Client) onResponse(from ids.ID, frame []byte, rep Reply) bool {
	num, slot, result := rep.Num, Slot(rep.At), rep.Result
	p := c.calls[num]
	if p == nil || p.ordNum != num {
		return false
	}
	idx := c.replicaIndex(from, p.group)
	if idx < 0 {
		return false // response from outside the group this request went to
	}
	bit := uint64(1) << uint(idx)
	if p.replied&bit != 0 {
		return false // one response per replica counts toward the quorum
	}
	p.replied |= bit
	parked := rep.Flags&respFlagParked != 0
	// The class key mixes the slot and the parked marker into the result
	// checksum so the f+1 match covers all three (see resTally).
	key := xcrypto.ChecksumNoCharge(result) + uint64(slot)*0x9E3779B97F4A7C15
	if parked {
		key ^= 0xC2B2AE3D27D4EB4F
	}
	t := p.byRes.of(key)
	t.add(frame, result, slot, parked)
	if t.count >= c.f+1 {
		// The request executed at the slot the winning class vouches for
		// (its minimum — see resTally), so the group's state now includes
		// it: ratchet the read floor so a later fast read by this client
		// can never observe a version that predates this response
		// (read-your-writes and monotonic reads across both paths).
		c.noteVersion(p.group, t.minSlot+1)
		p.frontier = max(p.frontier, c.readFloor[p.group])
		c.finish(p, t, p.frontier)
	}
	return true
}

func (c *Client) replicaIndex(id ids.ID, group int) int {
	for i, r := range c.groups[group] {
		if r == id {
			return i
		}
	}
	return -1
}

// noteVersion ratchets the per-group monotonic read floor.
func (c *Client) noteVersion(group int, v Slot) {
	if v > c.readFloor[group] {
		c.readFloor[group] = v
	}
}

// ---------------------------------------------------------------------
// Unordered read fast path (client side).
// ---------------------------------------------------------------------

// groupMask is the bitmask of every replica index of a group.
func (c *Client) groupMask(group int) uint64 {
	return uint64(1)<<uint(len(c.groups[group])) - 1
}

// sendRead sends the read (as currently pinned) to the replicas in to and
// re-arms its one timer. A round that starts with the whole group gets the
// read timeout; a first rung gets half of it (the widen deadline) and the
// widened round the other half, so total silence still reaches the ordered
// path after one read timeout.
func (c *Client) sendRead(p *call, to uint64) {
	// One exact-size frame, carved like order's, for every replica addressed.
	w := wire.WriterOn(c.slab.Take(requestFrameLen(len(p.payload)))[:0])
	w.U8(router.ChanRPC)
	w.U8(tagReadRequest)
	w.U64(p.num)
	w.U64(uint64(p.mode.At))
	w.Bytes(p.payload)
	frame := w.Finish()
	for i, rep := range c.groups[p.group] {
		if to&(1<<uint(i)) != 0 {
			c.rt.SendFrame(rep, frame)
		}
	}
	p.contacted |= to
	c.await(p, to)
	wait := defaultReadTimeout
	if p.firstRung != 0 || p.contacted != c.groupMask(p.group) {
		wait /= 2
	}
	p.timer.Cancel()
	p.timer = c.proc.AfterH(wait, p)
}

// onReadResponse collects one replica's fast-read reply, under the read's
// own number only. Acceptance needs f+1 (strong: all 2f+1) replies carrying
// the same result digest at compatible versions. When the replicas asked so
// far can no longer supply that — counting every one still to reply as a
// vote for the best class — the read climbs a rung (escalate), except a
// strong sample round that merely found the replicas version-skewed, which
// re-reads pinned at the revealed frontier first. An accepted-but-locked
// result goes straight to the ordered path. It reports whether it counted
// the reply.
func (c *Client) onReadResponse(from ids.ID, frame []byte, rep Reply) bool {
	num, version, flags, result := rep.Num, Slot(rep.At), rep.Flags, rep.Result
	served := flags&readFlagServed != 0
	p := c.calls[num]
	if p == nil || p.ordNum != 0 {
		// Not a read on an unordered rung: too late to vote — unless it
		// answers a probe: a passed-over replica whose reply would have
		// joined the accepted class is a first-rung target again.
		for g, pr := range c.readProbe {
			if pr.num == num && served && version >= pr.minSlot && app.ReadDigest(result) == pr.key {
				if idx := c.replicaIndex(from, g); idx >= 0 {
					c.readSuspect[g] &^= 1 << uint(idx)
				}
			}
		}
		return false
	}
	idx := c.replicaIndex(from, p.group)
	if idx < 0 {
		return false
	}
	bit := uint64(1) << uint(idx)
	if p.replied&bit != 0 {
		return false // one reply per replica counts, asked or not
	}
	p.replied |= bit
	c.settle(p, bit)
	if version > p.frontier {
		p.frontier = version
	}
	all := c.groupMask(p.group)
	need := c.f + 1
	if p.mode.Strong {
		need = len(c.groups[p.group])
	}
	counted := served && version >= p.minSlot
	if counted {
		key := app.ReadDigest(result)
		if p.mode.Strong && p.mode.At == 0 {
			// The strong sample round must be unanimous at ONE version:
			// the same bytes read at different versions do not certify a
			// linearization point, so the version joins the class key.
			key += uint64(version) * 0x9E3779B97F4A7C15
		}
		t := p.byRes.of(key)
		t.add(frame, result, version, flags&readFlagCrossed != 0)
		t.voters |= bit
		if t.count > p.best {
			p.best = t.count
		}
		if t.count >= need {
			c.readSuspect[p.group] = (c.readSuspect[p.group] | p.firstRung) &^ t.voters
			if p.mode.At == 0 && len(t.result) == 1 && t.result[0] == app.StatusLocked {
				// A transaction holds the keys: always the ordered path,
				// which parks behind the lock and answers when the
				// transaction resolves (the wait-queue semantics readers
				// rely on for isolation) — asking more replicas cannot
				// help.
				p.contacted = all
				c.escalate(p)
				return true
			}
			slot := t.minSlot
			if p.mode.At > 0 {
				slot = p.mode.At
			}
			if p.mode.Strong {
				c.StrongReads++
			} else {
				c.FastReads++
			}
			if num%readProbeEvery == 0 && p.contacted&^p.replied&c.readSuspect[p.group] != 0 {
				c.readProbe[p.group] = probeRead{num: num, key: key, minSlot: p.minSlot}
			}
			c.noteVersion(p.group, slot)
			c.finish(p, t, slot)
			return true
		}
	}
	// A refusal, a stale version or a minority digest is a vote lost: f+1
	// of them (one, for a strong read) prove no quorum will form, since at
	// least one comes from a correct replica.
	waiting := bits.OnesCount64(p.contacted &^ p.replied)
	if p.best+waiting >= need {
		return counted
	}
	if p.mode.Strong && p.mode.At == 0 && served {
		// Every replica serves the read but execution is skewed (or one
		// lies): once all versions are in, re-read pinned at the highest —
		// a version every correct replica can answer as-of from its MVCC
		// store once it catches up.
		if waiting > 0 {
			return counted
		}
		if p.frontier > 0 {
			p.mode.At, p.minSlot, p.replied, p.best = p.frontier, 0, 0, 0
			p.byRes.reset()
			c.sendRead(p, all)
			return counted
		}
	}
	c.escalate(p)
	return counted
}

// escalate moves a read that cannot complete where it stands — the
// replicas asked cannot supply the quorum, or its timer fired — one rung
// up.
//
// Rung 2 asks the rest of the group. If the read is then accepted, the
// replicas asked before that did not vote for the result are passed over as
// first-rung targets until they vote in an accepted class again.
//
// Rung 3 re-submits through the ordered path: the record resets its
// tallies, takes a fresh number for the ordered request and is filed under
// it too. The ordered result is always correct (it is the exact path a
// deployment without fast reads runs), so this is the safety net every
// fast-read failure mode lands on. The crossed flag reported upward is the
// ordered response's quorum-vouched parked marker: whether the read
// actually waited out a transaction server-side — the signal that lets the
// shard layer's revalidation skip fallbacks that merely lost a race or a
// packet.
func (c *Client) escalate(p *call) {
	if rest := c.groupMask(p.group) &^ p.contacted; rest != 0 {
		c.ReadWidens++
		p.firstRung = p.contacted
		c.sendRead(p, rest)
		if rest&^p.replied != 0 {
			return
		}
		// Everyone just asked had answered unasked (Byzantine guesses of
		// the request number): there is no reply left to wait for.
	}
	p.timer.Cancel()
	c.settle(p, p.awaits)
	c.ReadFallbacks++
	p.replied = 0
	p.byRes.reset()
	c.order(p)
}
