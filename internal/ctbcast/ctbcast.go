// Package ctbcast implements Consistent Tail Broadcast (paper §4), the
// novel non-equivocation primitive at the heart of uBFT, together with the
// CTBcast summary mechanism of §5.2 that restores FIFO delivery across
// tail-validity gaps.
//
// One Group object realizes one broadcast channel: a designated broadcaster
// and n = 2f+1 receivers (the broadcaster is also a receiver). Properties
// (§4.1): tail-validity for the last t messages, agreement (no two correct
// receivers deliver different messages for the same identifier — the
// non-equivocation guarantee), integrity, and no duplication.
//
// The implementation is Algorithm 1 verbatim:
//
//   - Fast path (signature-free): the broadcaster Tail-Broadcasts
//     <LOCK, k, m>; receivers commit to (k, m) in their locks array and
//     Tail-Broadcast <LOCKED, k, m>; unanimous LOCKED messages deliver.
//   - Slow path: the broadcaster Tail-Broadcasts <SIGNED, k, m, sig>;
//     receivers verify, re-check their lock, copy (k, fingerprint, sig)
//     into their own SWMR register for slot k%t, read everyone else's
//     registers, and deliver unless they find a conflicting signed value
//     (Byzantine broadcaster) or a higher aliasing identifier (out of
//     tail). Per §7.6, registers hold the message id and a 32-byte
//     fingerprint rather than the message body.
//
// On top of Algorithm 1, the Group FIFO-orders deliveries to the upper
// layer (§5.2 requires consensus to interpret messages in FIFO order), lets
// the upper layer hold the channel on a message it cannot judge yet (the Wait
// verdict) and runs the interactive summary protocol: every t/2 identifiers
// the broadcaster blocks until f+1 receivers certify a summary of its state,
// then Tail-Broadcasts the certified summary so receivers with gaps can
// catch up without the missed messages.
package ctbcast

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/swmr"
	"repro/internal/tbcast"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// Message tags on the broadcaster's tail-broadcast channel, aliased from
// the wire registry.
const (
	tagLock    = wire.RingTagLock
	tagSigned  = wire.RingTagSigned
	tagSummary = wire.RingTagSummary
	tagLocked  = wire.RingTagLocked // on receivers' LOCKED channels
)

// registerValueCap is the capacity of each SWMR register's value:
// identifier (8) + fingerprint (32) + signature (64).
const registerValueCap = 8 + xcrypto.DigestLen + xcrypto.SigLen

// PathMode selects how the slow path is triggered.
type PathMode int

const (
	// FastWithFallback runs the fast path and starts the slow path for an
	// identifier only if it has not been delivered after SlowPathDelay.
	// This is uBFT's production configuration.
	FastWithFallback PathMode = iota
	// FastOnly never signs (benchmarking the fast path in isolation).
	FastOnly
	// SlowOnly skips LOCK/LOCKED and always signs: a deployment configured
	// for it (benchmarking the slow path, the memory-node crash tests) runs
	// it from the start. Nothing switches a running group to it.
	SlowOnly
	// BothEager broadcasts LOCK and SIGNED together, as in the pedagogical
	// presentation of Algorithm 1.
	BothEager
)

// Params configures one CTBcast group.
type Params struct {
	// Self is this process; Broadcaster names the group's designated
	// broadcaster (may equal Self).
	Self        ids.ID
	Broadcaster ids.ID
	// Procs lists all 2F+1 group members in a globally agreed order.
	Procs []ids.ID
	F     int
	// Tail is t: the number of identifiers guaranteed deliverable.
	Tail int
	// MsgCap bounds message size.
	MsgCap int
	// SummaryCap bounds summary-certificate size on the broadcaster's
	// channel (summaries carry upper-layer state synopses, which can be
	// much larger than individual messages). Zero defaults to MsgCap
	// headroom. The ring slots of the broadcaster channel are sized for
	// the largest of the two — mirroring the paper's prototype, which
	// preallocates ring slots "large enough for the largest message"
	// (§6.2) and whose local memory therefore scales with both the tail
	// and the message size (Table 2).
	SummaryCap int
	// Mode selects the fast/slow path policy; SlowPathDelay is the
	// fallback timeout for FastWithFallback, which requires it positive.
	// Set it far above common-case latency: a fallback that fires on
	// transient hiccups floods the system with signature work and keeps it
	// in the slow path (a metastable failure mode).
	Mode          PathMode
	SlowPathDelay sim.Duration

	// InstanceBase reserves tail-broadcast instances [InstanceBase,
	// InstanceBase+len(Procs)] for this group: InstanceBase is the
	// broadcaster's LOCK/SIGNED channel, InstanceBase+1+i the LOCKED
	// channel of Procs[i].
	InstanceBase msgring.Instance
	// RegionBase reserves memory-node regions [RegionBase, RegionBase +
	// len(Procs)*Tail) for the group's SWMR registers: receiver i owns
	// regions [RegionBase+i*Tail, RegionBase+(i+1)*Tail).
	RegionBase memnode.RegionID

	// Deliver receives FIFO-ordered deliveries. k starts at 1. May be nil:
	// an upper layer whose Validate applies what it accepts (consensus
	// interprets each message once, there) needs no second hook.
	Deliver func(k uint64, m []byte)
	// Validate, if non-nil, is the upper layer's Byzantine check
	// (Algorithm 5), called with each message in FIFO order just before
	// Deliver. Reject marks the broadcaster Byzantine and blocks all further
	// deliveries from it (Algorithm 2 line 1), that message's included. Wait
	// keeps the message at the head of the channel, later ones queued behind
	// it, until the upper layer calls Resume, which judges it again.
	Validate func(k uint64, m []byte) Verdict
	// Capture returns the upper layer's deterministic state snapshot after
	// applying the broadcaster's messages up to id (summary content). May
	// be nil (empty summaries).
	Capture func(id uint64) []byte
	// ApplySummary applies a certified summary for a gap the upper layer
	// missed. May be nil.
	ApplySummary func(id uint64, state []byte)

	// UnsafeFirstLockDelivers, when set, delivers a LOCK message the moment
	// this process locks it, skipping the LOCKED unanimity check that is
	// CTBcast's only equivocation defense. FOR THE BYZANTINE HARNESS ONLY:
	// it exists so the adversarial scenario suite can prove the invariant
	// checker actually detects divergence when the defense is off (an
	// equivocating broadcaster then splits correct processes). Never set it
	// in production configurations.
	UnsafeFirstLockDelivers bool
}

// Verdict is the upper layer's judgement of a broadcaster's next message
// (Params.Validate).
type Verdict uint8

const (
	Accept Verdict = iota // deliver it
	Reject                // the broadcaster is Byzantine
	Wait                  // undecidable yet: hold the channel until Resume
)

// Env bundles the per-host infrastructure a Group plugs into.
type Env struct {
	RT     *router.Router
	Proc   *sim.Proc
	Hub    *msgring.Hub
	AckHub *tbcast.AckHub
	Store  *swmr.Store
	Signer *xcrypto.Signer
	SumHub *SummaryHub
	// BgProc is the host's crypto thread pool: bookkeeping signatures
	// (summaries) run there so the main event loop never blocks (§3.2).
	// NewGroup creates a private one when nil.
	BgProc *sim.Proc
}

type lockEntry struct {
	k  uint64
	dg [xcrypto.DigestLen]byte
	ok bool
}

type lockedEntry struct {
	k uint64
	m []byte
}

// Group is one process's view of one CTBcast channel.
type Group struct {
	p   Params
	env Env
	n   int

	// enc is the encode buffer of every LOCK, SIGNED and LOCKED this member
	// sends and of its register values (encode).
	enc []byte

	// Broadcaster-side state.
	bcast       *tbcast.Broadcaster
	lockedSelf  *tbcast.Broadcaster // my LOCKED channel (every member has one)
	nextK       uint64              // next identifier to assign (1-based)
	sendQ       [][]byte
	lastSummary uint64
	// shareStates collects the shares of the (at most two) open summary
	// ids, id in slot (id/halfT)%2 (collector).
	shareStates [2]summaryShares
	halfT       int
	// The crypto pool's completions of a summary share (ownShare,
	// shareVerdict), bound once.
	ownShareFn, shareVerdictFn func(*xcrypto.Job)

	// Receiver-side state (Algorithm 1 lines 7-10).
	locks     []lockEntry              // t slots
	delivered []uint64                 // t slots, highest k delivered per slot
	locked    map[ids.ID][]lockedEntry // n x t slots
	// myRegs holds a handle per tail slot for this member's own registers,
	// all made at the first write: a handle's only state is its writer's
	// cooldown queue, so peers' registers are read by region without one.
	myRegs []swmr.Register

	// Messages awaiting slow-path completion, keyed by k, and finished
	// slow-delivery records for reuse.
	slowPending map[uint64][]byte
	slowFree    wire.FreeList[slowDelivery]
	// Fallback records per identifier (FastWithFallback), and finished ones
	// for reuse.
	fallbacks    map[uint64]*fallback
	fallbackFree wire.FreeList[fallback]

	// FIFO delivery layer. waiting: Validate said Wait for the message at
	// nextDeliver, which stays in pendingFIFO until Resume.
	nextDeliver uint64
	pendingFIFO map[uint64][]byte
	byzBlocked  bool
	waiting     bool

	// Stats for tests, Table 2 and Figure 9.
	FastDeliveries uint64
	SlowDeliveries uint64
	SummariesUsed  uint64
}

// NewGroup wires one group member. Every member of the group must create
// its Group with identical Params (except Self) over the same Env kinds.
func NewGroup(p Params, env Env) *Group {
	if len(p.Procs) != 2*p.F+1 {
		panic(fmt.Sprintf("ctbcast: need 2f+1=%d procs, got %d", 2*p.F+1, len(p.Procs)))
	}
	if p.Tail < 2 || p.Tail%2 != 0 {
		panic(fmt.Sprintf("ctbcast: tail must be even and >= 2, got %d", p.Tail))
	}
	if p.Mode == FastWithFallback && p.SlowPathDelay <= 0 {
		panic("ctbcast: FastWithFallback needs a positive SlowPathDelay")
	}
	g := &Group{
		p:           p,
		env:         env,
		n:           len(p.Procs),
		nextK:       1,
		nextDeliver: 1,
		halfT:       p.Tail / 2,
		locks:       make([]lockEntry, p.Tail),
		delivered:   make([]uint64, p.Tail),
		locked:      make(map[ids.ID][]lockedEntry, len(p.Procs)),
		slowPending: make(map[uint64][]byte),
		fallbacks:   make(map[uint64]*fallback),
		pendingFIFO: make(map[uint64][]byte),
	}
	if env.BgProc == nil {
		env.BgProc = sim.NewProc(env.Proc.Engine(), env.Proc.Name()+"-crypto")
	}
	g.env = env
	g.ownShareFn, g.shareVerdictFn = g.ownShare, g.shareVerdict
	slotCap := innerCap(p.MsgCap)
	bcastSlotCap := slotCap
	if p.SummaryCap > bcastSlotCap {
		bcastSlotCap = p.SummaryCap
	}
	ringSlots := 2 * p.Tail // TBcast buffers the last 2t messages (§4.2)
	peers := ids.Others(p.Procs, p.Self)

	for _, q := range p.Procs {
		g.locked[q] = make([]lockedEntry, p.Tail)
	}

	// Broadcaster channel (LOCK / SIGNED / SUMMARY).
	if p.Self == p.Broadcaster {
		g.bcast = tbcast.NewBroadcaster(tbcast.Config{
			RT:          env.RT,
			Proc:        env.Proc,
			AckHub:      env.AckHub,
			Instance:    p.InstanceBase,
			Receivers:   peers,
			Slots:       ringSlots,
			SlotCap:     bcastSlotCap,
			SelfDeliver: func(_ uint64, m []byte) { g.onBroadcasterMsg(p.Self, m) },
		})
	} else {
		tbcast.Listen(env.Hub, env.RT, env.Proc, p.Broadcaster, p.InstanceBase, ringSlots, bcastSlotCap,
			func(_ uint64, m []byte) { g.onBroadcasterMsg(p.Broadcaster, m) })
	}

	// LOCKED channels: every member broadcasts its commitments.
	for i, q := range p.Procs {
		inst := p.InstanceBase + msgring.Instance(1+i)
		if q == p.Self {
			g.lockedBcastInit(inst, peers, ringSlots, slotCap)
		} else {
			q := q
			tbcast.Listen(env.Hub, env.RT, env.Proc, q, inst, ringSlots, slotCap,
				func(_ uint64, m []byte) { g.onLockedMsg(q, m) })
		}
	}

	if env.SumHub != nil {
		env.SumHub.register(p.InstanceBase, g)
	}
	return g
}

// innerCap is the TBcast slot capacity for an application message cap:
// tag + identifier + length prefixes + signature headroom.
func innerCap(msgCap int) int { return msgCap + 128 }

func (g *Group) lockedBcastInit(inst msgring.Instance, receivers []ids.ID, slots, cap int) {
	g.lockedSelf = tbcast.NewBroadcaster(tbcast.Config{
		RT:          g.env.RT,
		Proc:        g.env.Proc,
		AckHub:      g.env.AckHub,
		Instance:    inst,
		Receivers:   receivers,
		Slots:       slots,
		SlotCap:     cap,
		SelfDeliver: func(_ uint64, m []byte) { g.onLockedMsg(g.p.Self, m) },
	})
}

// Stop cancels background timers and drops what the FIFO layer holds,
// a message waiting for its verdict included (teardown).
func (g *Group) Stop() {
	if g.bcast != nil {
		g.bcast.Stop()
	}
	if g.lockedSelf != nil {
		g.lockedSelf.Stop()
	}
	for _, fb := range g.fallbacks {
		fb.timer.Cancel()
	}
	g.waiting = false
	clear(g.pendingFIFO)
}

// ResetChannel rewinds this member's receiver-side state for a broadcaster
// that provably cold-restarted and will number its stream from k=1 again:
// locks, delivered marks, the LOCKED arrays of every member (their LOCKED
// re-announcements for the fresh stream carry small identifiers the stale
// high-k entries would otherwise shadow), FIFO buffering (a message waiting
// for its verdict included), and pending slow-path work. This member's own
// SWMR registers for the group are overwritten with garbage so stale signed
// entries from the pre-restart stream cannot collide with the fresh stream's
// identifiers during slow-path arbitration (decodeRegValue rejects them as
// garbage).
//
// byzBlocked is deliberately preserved: a broadcaster proven Byzantine must
// not launder itself by pretending to restart. The upper layer's own
// per-broadcaster FIFO state (the consensus Validate hook's view/prepare
// history) is untouched too — that is where cross-restart equivocation is
// caught.
func (g *Group) ResetChannel() {
	for i := range g.locks {
		g.locks[i] = lockEntry{}
	}
	for i := range g.delivered {
		g.delivered[i] = 0
	}
	for _, q := range g.p.Procs {
		ents := g.locked[q]
		for i := range ents {
			ents[i] = lockedEntry{}
		}
	}
	g.slowPending = make(map[uint64][]byte)
	for k, fb := range g.fallbacks {
		fb.timer.Cancel()
		delete(g.fallbacks, k)
	}
	g.nextDeliver, g.waiting = 1, false
	g.pendingFIFO = make(map[uint64][]byte)
	for slot := range g.p.Tail {
		g.myReg(slot).Write(0, []byte{0xff}, func(error) {})
	}
}

// region names the SWMR register of member number i (its position in Procs)
// for a tail slot.
func (g *Group) region(i, slot int) memnode.RegionID {
	return g.p.RegionBase + memnode.RegionID(i*g.p.Tail+slot)
}

// myReg returns this member's write handle for a tail slot.
func (g *Group) myReg(slot int) *swmr.Register {
	if g.myRegs == nil {
		g.myRegs = swmr.NewRegisters(g.env.Store, g.region(slices.Index(g.p.Procs, g.p.Self), 0), registerValueCap, g.p.Tail)
	}
	return &g.myRegs[slot]
}

// ResetMember rewinds this member's outbound ack state toward a group
// member that cold-restarted: the member's fresh ring receivers hold
// nothing, so every channel this member broadcasts on (its own stream if it
// is the designated broadcaster, and its LOCKED channel in every case)
// must re-push the retained tail — including the latest summary
// certificate, which is what heals the restarted member's FIFO gap on an
// otherwise idle channel.
func (g *Group) ResetMember(to ids.ID) {
	if g.bcast != nil {
		g.bcast.ResetReceiver(to)
	}
	if g.lockedSelf != nil {
		g.lockedSelf.ResetReceiver(to)
	}
}

// Broadcast sends m with the next identifier. Only the designated
// broadcaster may call it. m is not retained: the caller may reuse its buffer
// once Broadcast returns. If the summary protocol requires blocking (paper
// §5.2: every t/2 messages), a copy of the message queues until the summary
// certificate arrives.
func (g *Group) Broadcast(m []byte) {
	if g.p.Self != g.p.Broadcaster {
		panic("ctbcast: only the designated broadcaster may Broadcast")
	}
	if len(m) > g.p.MsgCap {
		panic(fmt.Sprintf("ctbcast: message %dB exceeds cap %dB", len(m), g.p.MsgCap))
	}
	if len(g.sendQ) == 0 && g.windowOpen() {
		k := g.nextK
		g.nextK++
		g.emit(k, m)
		return
	}
	g.sendQ = append(g.sendQ, slices.Clone(m))
	g.pumpBroadcast()
}

// windowOpen reports whether the next identifier may go out: identifiers
// beyond lastSummary+t would evict messages receivers may still need for the
// current summary (§5.2, footnote 3), so they wait for the next one.
func (g *Group) windowOpen() bool { return g.nextK <= g.lastSummary+uint64(g.p.Tail) }

// pumpBroadcast sends queued messages while the summary window allows,
// keeping the rest at the head of the queue's backing array.
func (g *Group) pumpBroadcast() {
	sent := 0
	for ; sent < len(g.sendQ) && g.windowOpen(); sent++ {
		k := g.nextK
		g.nextK++
		g.emit(k, g.sendQ[sent])
	}
	rest := copy(g.sendQ, g.sendQ[sent:])
	clear(g.sendQ[rest:])
	g.sendQ = g.sendQ[:rest]
}

func (g *Group) emit(k uint64, m []byte) {
	switch g.p.Mode {
	case FastOnly:
		g.sendLock(k, m)
	case SlowOnly:
		g.sendSigned(k, m)
	case BothEager:
		g.sendLock(k, m)
		g.sendSigned(k, m)
	case FastWithFallback:
		fb := g.fallbackFree.Get()
		if fb == nil {
			fb = &fallback{g: g}
		}
		fb.k, fb.m = k, g.sendLock(k, m)
		fb.timer = g.env.Proc.AfterH(g.p.SlowPathDelay, fb)
		g.fallbacks[k] = fb
	}
}

// fallback is the slow-path deadline of one identifier this broadcaster sent
// on the fast path (FastWithFallback): the message, a view into its LOCK ring
// frame, and the timer, whose Handler the record is. The group reuses the
// record once the identifier is delivered or signed.
type fallback struct {
	g     *Group
	k     uint64
	m     []byte
	timer sim.Timer
}

// Fire is the timer's expiry: it signs the identifier if it is still
// undelivered.
func (fb *fallback) Fire() {
	g := fb.g
	delete(g.fallbacks, fb.k)
	if !g.isDelivered(fb.k) {
		g.sendSigned(fb.k, fb.m)
	}
	fb.release()
}

// release hands a record whose timer is done with back to its group.
func (fb *fallback) release() {
	*fb = fallback{g: fb.g}
	fb.g.fallbackFree.Put(fb)
}

func (g *Group) isDelivered(k uint64) bool {
	return g.delivered[k%uint64(g.p.Tail)] >= k
}

// Msg is one message of a CTBcast ring channel: <LOCK, k, m>, <SIGNED, k,
// m, sig> and <SUMMARY, id, state, cert> on the broadcaster's channel,
// <LOCKED, k, m> on a member's. Identifiers start at 1.
type Msg struct {
	Tag  uint8
	K    uint64
	M    []byte
	Sig  []byte       // SIGNED only
	Cert xcrypto.Cert // SUMMARY only
}

// AppendMsg encodes msg into w.
func AppendMsg(w *wire.Writer, msg Msg) {
	w.U8(msg.Tag)
	w.U64(msg.K)
	w.Bytes(msg.M)
	switch msg.Tag {
	case tagSigned:
		w.Bytes(msg.Sig)
	case tagSummary:
		msg.Cert.AppendTo(w)
	}
}

// appendSummary encodes <SUMMARY, id, state, cert> as AppendMsg does, with
// the certificate the verified shares over state make up written straight
// into w rather than encoded on its own first.
func appendSummary(w *wire.Writer, id uint64, state string, shares xcrypto.Shares[string]) {
	w.U8(tagSummary)
	w.U64(id)
	w.String(state)
	shares.AppendCert(w, state)
}

// ParseMsg decodes a CTBcast message in borrow mode: M, Sig and the
// certificate are views of b, the message of a delivered ring
// frame — the one the network delivered, or the same frame's self-delivery —
// which is immutable once sent and never recycled, so views, even ones
// retained in the lock arrays or slowPending, stay valid indefinitely
// without copying. They are shared with every other reader of the frame and
// are never written through. ok is false for an unknown tag and for
// identifier 0.
func ParseMsg(b []byte) (Msg, bool) {
	r := wire.NewReader(b)
	msg := Msg{Tag: r.U8(), K: r.U64(), M: r.BytesView()}
	var err error
	switch msg.Tag {
	case tagLock, tagLocked:
	case tagSigned:
		//ubft:poolsafety a Msg borrows its ring frame, which is immutable once sent and never recycled (see the borrow-mode note above)
		msg.Sig = r.BytesView()
	case tagSummary:
		msg.Cert, err = xcrypto.ReadCert(r)
	default:
		return Msg{}, false
	}
	return msg, err == nil && r.Done() == nil && msg.K != 0
}

// sendLock broadcasts <LOCK, k, m> and returns m's bytes inside the sent ring
// frame, which is immutable once sent.
func (g *Group) sendLock(k uint64, m []byte) []byte {
	idx := g.bcast.Broadcast(g.encode(Msg{Tag: tagLock, K: k, M: m}))
	lock := g.bcast.Msg(idx)
	return lock[len(lock)-len(m):]
}

func (g *Group) sendSigned(k uint64, m []byte) {
	stmt := xcrypto.Signed(g.p.Broadcaster, k, xcrypto.Digest(g.env.Proc, m))
	sig := g.env.Signer.Sign(g.env.Proc, stmt.Bytes())
	g.bcast.Broadcast(g.encode(Msg{Tag: tagSigned, K: k, M: m, Sig: sig}))
}

// encode encodes msg into the group's encode buffer. A broadcast copies it
// into a ring frame before it returns, and a register write into its
// request frame.
func (g *Group) encode(msg Msg) []byte {
	w := wire.WriterOn(g.enc[:0])
	AppendMsg(&w, msg)
	g.enc = w.Finish()
	return g.enc
}

// onBroadcasterMsg handles LOCK / SIGNED / SUMMARY from the broadcaster's
// channel (TBcast-deliver events at this receiver), in borrow mode (ParseMsg).
func (g *Group) onBroadcasterMsg(from ids.ID, payload []byte) {
	msg, ok := ParseMsg(payload)
	switch {
	case !ok:
	case msg.Tag == tagLock:
		g.onLock(msg.K, msg.M)
	case msg.Tag == tagSigned:
		g.onSigned(msg.K, msg.M, msg.Sig)
	case msg.Tag == tagSummary:
		g.onSummaryCert(msg.K, msg.M, msg.Cert)
	}
}

// onLock implements Algorithm 1 lines 12-16.
func (g *Group) onLock(k uint64, m []byte) {
	slot := k % uint64(g.p.Tail)
	if k <= g.locks[slot].k {
		return
	}
	g.locks[slot] = lockEntry{k: k, dg: xcrypto.Digest(g.env.Proc, m), ok: true}
	if g.p.UnsafeFirstLockDelivers {
		// Defense-off mode (Byzantine harness): deliver on first LOCK,
		// bypassing the LOCKED unanimity exchange entirely. An equivocating
		// broadcaster now makes different processes deliver different m for
		// the same k — exactly the divergence the unanimity rule prevents.
		g.FastDeliveries++
		g.deliverOnce(k, append([]byte(nil), m...))
		return
	}
	// TBcast-broadcast <LOCKED, k, m> on my channel.
	g.lockedSelf.Broadcast(g.encode(Msg{Tag: tagLocked, K: k, M: m}))
}

// onLockedMsg handles <LOCKED, k, m> from q (Algorithm 1 lines 18-23).
func (g *Group) onLockedMsg(q ids.ID, payload []byte) {
	// Borrow mode (ParseMsg): the view is retained in the locked array.
	msg, ok := ParseMsg(payload)
	if !ok || msg.Tag != tagLocked {
		return
	}
	k, m := msg.K, msg.M
	slot := k % uint64(g.p.Tail)
	ent := &g.locked[q][slot]
	if k <= ent.k {
		return
	}
	ent.k, ent.m = k, m
	// Unanimity check: all n processes locked the same (k, m).
	first := true
	for _, p := range g.p.Procs {
		e := g.locked[p][slot]
		if e.k != k || !bytes.Equal(e.m, m) {
			first = false
			break
		}
	}
	if first {
		// Unanimous: the n retained copies are byte-equal, so keep one
		// buffer for all of them and let the other frames go.
		for _, p := range g.p.Procs {
			g.locked[p][slot].m = ent.m
		}
		g.env.Proc.Charge(latmodel.ChecksumCost(len(m)))
		g.FastDeliveries++
		g.deliverOnce(k, m)
	}
}

// onSigned implements Algorithm 1 lines 25-37.
func (g *Group) onSigned(k uint64, m []byte, sig []byte) {
	dg := xcrypto.Digest(g.env.Proc, m)
	if stmt := xcrypto.Signed(g.p.Broadcaster, k, dg); !g.env.Signer.Verify(g.env.Proc, g.p.Broadcaster, stmt.Bytes(), sig) {
		return // line 26: invalid signature
	}
	slot := k % uint64(g.p.Tail)
	lk := g.locks[slot]
	if !(k > lk.k || (k == lk.k && lk.ok && dg == lk.dg)) {
		return // line 28: committed to a different message
	}
	g.locks[slot] = lockEntry{k: k, dg: dg, ok: true}
	// Line 30: copy (k, sig, fingerprint) into my register for this slot.
	// Register.Write copies the value into its request frame at once.
	vw := wire.WriterOn(g.enc[:0])
	encodeRegValue(&vw, k, dg, sig)
	g.enc = vw.Finish()
	g.slowPending[k] = m
	sd := g.newSlowDelivery(k, slot, dg)
	g.myReg(int(slot)).Write(k, g.enc, sd.writtenFn)
}

// slowDelivery is one slow-path delivery of (k, dg) past this member's
// register write (Algorithm 1 lines 30-37): the read of every member's
// register for the slot, and what those reads returned. One record carries
// the whole sweep, its callbacks bound once; the group reuses it afterwards.
type slowDelivery struct {
	g         *Group
	k, slot   uint64
	dg        [xcrypto.DigestLen]byte
	waiting   int                          // register reads not yet answered
	entries   []regEntry                   // the register entries read, in arrival order
	writtenFn func(error)                  // sd.written
	readFn    func(swmr.ReadResult, error) // sd.read
}

// regEntry is one register's entry (k, fingerprint, signature), decoded when
// its read completes: a read lends its value only to its callback.
type regEntry struct {
	k   uint64
	dg  [xcrypto.DigestLen]byte
	sig [xcrypto.SigLen]byte
}

// newSlowDelivery returns a record for (k, dg), reusing a finished one.
func (g *Group) newSlowDelivery(k, slot uint64, dg [xcrypto.DigestLen]byte) *slowDelivery {
	sd := g.slowFree.Get()
	if sd == nil {
		sd = &slowDelivery{g: g, entries: make([]regEntry, 0, g.n)}
		sd.writtenFn, sd.readFn = sd.written, sd.read
	}
	sd.k, sd.slot, sd.dg = k, slot, dg
	return sd
}

// release hands a record whose callbacks have all run back to its group.
func (sd *slowDelivery) release() {
	sd.entries = sd.entries[:0]
	sd.g.slowFree.Put(sd)
}

// written continues once this member's register write completed: lines
// 31-37 read every member's register for the slot.
func (sd *slowDelivery) written(err error) {
	g := sd.g
	if err != nil {
		delete(g.slowPending, sd.k)
		sd.release()
		return
	}
	sd.waiting = len(g.p.Procs)
	for i := range g.p.Procs {
		g.env.Store.Read(g.region(i, int(sd.slot)), registerValueCap, sd.readFn)
	}
}

// read collects one register read; the last one decides.
func (sd *slowDelivery) read(res swmr.ReadResult, err error) {
	sd.waiting--
	// A Byzantine register owner (err != nil) contributes the default
	// (empty) value and is otherwise ignored, and so is garbage in a
	// Byzantine receiver's register.
	if err == nil && !res.Empty {
		if k, dg, sig, err := decodeRegValue(res.Value); err == nil {
			e := regEntry{k: k, dg: dg}
			copy(e.sig[:], sig)
			sd.entries = append(sd.entries, e)
		}
	}
	if sd.waiting == 0 {
		sd.g.finishSlow(sd)
		sd.release()
	}
}

// finishSlow implements lines 31-37 on the registers read: abort on conflict
// or out-of-tail, otherwise deliver.
func (g *Group) finishSlow(sd *slowDelivery) {
	k, dg := sd.k, sd.dg
	m, ok := g.slowPending[k]
	delete(g.slowPending, k)
	if !ok {
		return
	}
	for i := range sd.entries {
		e := &sd.entries[i]
		k2, dg2, sig2 := e.k, e.dg, e.sig[:]
		if k2 == k && dg2 == dg {
			continue // echoes our own value: no behavioural effect,
			// so its signature needs no (expensive) verification
		}
		// Only entries that would change our behaviour — a conflict
		// for the same identifier or a higher aliasing identifier —
		// must carry a valid broadcaster signature (line 32); without
		// one they are fabrications of a Byzantine receiver and are
		// ignored. Skipping the rest keeps public-key operations off
		// the common slow path, matching the paper's cost profile.
		if stmt := xcrypto.Signed(g.p.Broadcaster, k2, dg2); !g.env.Signer.Verify(g.env.Proc, g.p.Broadcaster, stmt.Bytes(), sig2) {
			continue
		}
		if k2 == k && dg2 != dg {
			return // line 33-34: Byzantine broadcaster, abort delivery
		}
		if k2 > k && (k2-k)%uint64(g.p.Tail) == 0 {
			return // line 35-36: out of tail, drop
		}
	}
	g.SlowDeliveries++
	g.deliverOnce(k, m)
}

func encodeRegValue(w *wire.Writer, k uint64, dg [xcrypto.DigestLen]byte, sig []byte) {
	w.U64(k)
	w.Raw(dg[:])
	w.Raw(sig)
}

// decodeRegValue parses a register value in borrow mode: sig aliases v,
// which a read lends only to its callback.
func decodeRegValue(v []byte) (k uint64, dg [xcrypto.DigestLen]byte, sig []byte, err error) {
	r := wire.NewReader(v)
	k = r.U64()
	copy(dg[:], r.RawView(xcrypto.DigestLen))
	sig = r.RawView(xcrypto.SigLen)
	if e := r.Done(); e != nil {
		return 0, dg, nil, e
	}
	return k, dg, sig, nil
}

// deliverOnce implements Algorithm 1 lines 39-42 plus the FIFO layer.
func (g *Group) deliverOnce(k uint64, m []byte) {
	slot := k % uint64(g.p.Tail)
	if k <= g.delivered[slot] {
		return
	}
	g.delivered[slot] = k
	if fb := g.fallbacks[k]; fb != nil {
		fb.timer.Cancel()
		delete(g.fallbacks, k)
		fb.release()
	}
	g.fifoDeliver(k, m)
}

// fifoDeliver hands messages to the upper layer strictly in identifier
// order (§5.2). Out-of-order deliveries buffer; gaps resolve via summaries.
func (g *Group) fifoDeliver(k uint64, m []byte) {
	if g.byzBlocked || k < g.nextDeliver {
		return
	}
	if _, dup := g.pendingFIFO[k]; !dup {
		g.pendingFIFO[k] = m
	}
	g.drainFIFO()
}

func (g *Group) drainFIFO() {
	for !g.waiting {
		k := g.nextDeliver
		m, ok := g.pendingFIFO[k]
		if !ok {
			return
		}
		delete(g.pendingFIFO, k)
		g.nextDeliver++
		if g.p.Validate != nil {
			switch g.p.Validate(k, m) {
			case Reject:
				// Algorithm 2 line 1: block on a Byzantine message.
				g.byzBlocked = true
				g.pendingFIFO = make(map[uint64][]byte)
				return
			case Wait:
				g.nextDeliver, g.pendingFIFO[k], g.waiting = k, m, true
				return
			}
		}
		if g.p.Deliver != nil {
			g.p.Deliver(k, m)
		}
		g.afterFIFODeliver(k)
	}
}

// Resume judges again the message a Wait verdict holds at the head of the
// channel and, if it is accepted, delivers on from there. Without one it does
// nothing.
func (g *Group) Resume() {
	if g.waiting {
		g.waiting = false
		g.drainFIFO()
	}
}

// Blocked reports whether the upper layer declared the broadcaster
// Byzantine (deliveries stopped).
func (g *Group) Blocked() bool { return g.byzBlocked }

// MsgCap returns the per-message byte cap Broadcast enforces, so the upper
// layer can fragment messages that would otherwise exceed it.
func (g *Group) MsgCap() int { return g.p.MsgCap }

// Delivered returns the count of FIFO-delivered identifiers.
func (g *Group) Delivered() uint64 { return g.nextDeliver - 1 }

// AllocatedDisaggregatedBytes returns the disaggregated memory footprint of
// this group's registers on ONE memory node (Table 2 accounting).
func (g *Group) AllocatedDisaggregatedBytes() int {
	return g.n * g.p.Tail * swmr.RegionSize(registerValueCap)
}

// AllocatedLocalBytes approximates this member's local-memory footprint:
// ring mirrors/buffers plus the bookkeeping arrays.
func (g *Group) AllocatedLocalBytes() int {
	total := 0
	if g.bcast != nil {
		total += g.bcast.AllocatedBytes()
	}
	if g.lockedSelf != nil {
		total += g.lockedSelf.AllocatedBytes()
	}
	perSlot := innerCap(g.p.MsgCap) + 64
	total += g.p.Tail * perSlot            // locks + delivered bookkeeping
	total += g.n * g.p.Tail * perSlot      // locked array
	total += (g.n + 1) * g.p.Tail * 2 * 20 // register handles
	return total
}

// AllocateRegions allocates this group's SWMR regions on the given memory
// nodes, one range of tail registers per member and node. Call once per group
// before any Broadcast, with the same Params the members use.
func AllocateRegions(nodes []*memnode.Node, procs []ids.ID, tail int, regionBase memnode.RegionID) {
	for _, mn := range nodes {
		for i, owner := range procs {
			mn.AllocateRange(regionBase+memnode.RegionID(i*tail), tail, owner, swmr.RegionSize(registerValueCap))
		}
	}
}
