// Package msgring implements the paper's fast one-way message-passing
// primitive (§6.2, Figure 6): an acknowledgement-free circular buffer that
// the sender RDMA-writes into and the receiver polls. Old messages are
// overwritten by newer ones even if never delivered, which is what gives
// the primitive its tail semantics (only the last `slots` messages are
// guaranteed) and its practically bounded memory.
//
// Layout per slot: checksum (8B) | incarnation (8B) | size (4B) | payload.
// The incarnation number is how many times the slot has been written
// (absolute message index / slot count + 1), letting the receiver detect
// both new messages and skipped ones. The receiver copies a slot to a
// private buffer, re-checks the incarnation, then validates the checksum
// before delivering — the paper's torn-read defence, reproduced here.
//
// As the paper's prototype writes into registered memory it sets up once, a
// sender encodes each message once, into a frame it carves from blocks of its
// own (wire.Slab) rather than a slice allocated per message. The frame is
// never written once sent: the sender's mirror, every receiver, every
// retransmission and the broadcaster's self-delivery share it.
//
// Delivery is in index order. The paper's receiver advances its read
// pointer to the oldest undelivered message; here that is the oldest
// *unrecoverable-or-present* one: the sender keeps its last `slots` messages
// in a mirror and whoever drives it (Tail Broadcast) re-sends what was not
// acknowledged, so a missing index is waited for while the mirror can still
// hold it, which the receiver knows from the highest index it has seen, and
// skipped only once it has provably been overwritten there. Frames that
// arrive meanwhile wait in their slots. A ring nobody retransmits into
// therefore stalls at its first lost frame until the sender laps it. Only a
// frame ahead of the read pointer is stored, so the private reorder slots
// exist from a ring's first out-of-order frame on: over a FIFO link without
// loss every frame is the next one and is delivered as it arrives.
//
// A second staging buffer queues messages whose target slot has an RDMA
// WRITE still in flight (the NIC has not reported completion); the staging
// buffer evicts its oldest entry when full, preserving boundedness.
package msgring

import (
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// Instance distinguishes independent rings between the same pair of hosts
// (e.g. one per broadcast channel).
type Instance uint32

type ringKey struct {
	peer ids.ID
	inst Instance
}

// Hub demultiplexes all ring traffic arriving at one host. Create exactly
// one Hub per host and register receivers on it.
type Hub struct {
	rt        *router.Router
	proc      *sim.Proc
	receivers map[ringKey]*Receiver
	// byPeer indexes receivers by sending peer in registration order, so
	// ResetPeer walks them deterministically (registration order is fixed
	// by the assembly code, identical on every replica and every run).
	byPeer map[ids.ID][]*Receiver
}

// NewHub installs the hub on the host's ring channel.
func NewHub(rt *router.Router, proc *sim.Proc) *Hub {
	h := &Hub{
		rt:        rt,
		proc:      proc,
		receivers: make(map[ringKey]*Receiver),
		byPeer:    make(map[ids.ID][]*Receiver),
	}
	rt.Register(router.ChanRing, h.onFrame)
	return h
}

func (h *Hub) onFrame(from ids.ID, payload []byte) {
	f, ok := ParseFrame(payload)
	if !ok {
		return // malformed frame from a Byzantine sender
	}
	recv := h.receivers[ringKey{peer: from, inst: f.Inst}]
	if recv == nil {
		return
	}
	recv.accept(int(f.Slot), f.Inc, f.Checksum, f.Msg)
}

// Frame is one RDMA write into a ring slot: the ring instance, the slot, its
// incarnation, the checksum of the message and the message itself.
type Frame struct {
	Inst     Instance
	Slot     uint32
	Inc      uint64
	Checksum uint64
	Msg      []byte
}

// frameHeaderLen is the fixed part of a frame ahead of the message's length
// prefix: the router channel tag, instance, slot, incarnation and checksum.
const frameHeaderLen = 1 + 4 + 4 + 8 + 8

// ParseFrame decodes a ring frame, channel tag stripped, in borrow mode: Msg
// is a view of payload. A frame is immutable once sent and never recycled,
// so the view stays valid for as long as the receiver (or anyone
// downstream) retains it. It is shared — the sender's mirror, every receiver
// and the broadcaster's self-delivery read the same bytes — so nobody writes
// through it (wire.BytesView caps it against appends).
func ParseFrame(payload []byte) (Frame, bool) {
	r := wire.NewReader(payload)
	inst, slot, inc, chk := Instance(r.U32()), r.U32(), r.U64(), r.U64()
	msg := r.BytesView()
	if r.Done() != nil {
		return Frame{}, false
	}
	return Frame{Inst: inst, Slot: slot, Inc: inc, Checksum: chk, Msg: msg}, true
}

// EncodeFrame encodes f, channel tag first, into a slice of its own of exact
// size that is never written once sent. The checksum is always the one of
// f.Msg, whatever f.Checksum holds, so a rewritten message is framed like an
// honest one.
func EncodeFrame(f Frame) []byte {
	return appendFrame(make([]byte, 0, frameLen(len(f.Msg))), f)
}

// frameLen is the encoded length of a frame carrying a message of n bytes.
func frameLen(n int) int { return frameHeaderLen + wire.BytesLen(n) }

// appendFrame is the one ring-frame codec: it appends f, channel tag first
// and checksummed as EncodeFrame says, to dst.
func appendFrame(dst []byte, f Frame) []byte {
	w := wire.WriterOn(dst)
	w.U8(router.ChanRing)
	w.U32(uint32(f.Inst))
	w.U32(f.Slot)
	w.U64(f.Inc)
	w.U64(xcrypto.ChecksumNoCharge(f.Msg))
	w.Bytes(f.Msg)
	return w.Finish()
}

// Sender is the writing end of one ring instance: one stream of messages,
// RDMA-written into the ring of each of its receivers. The message index,
// the mirror and the encoded frame exist once per message; per receiver the
// sender keeps only when each slot's last WRITE completes and which indices
// wait behind one.
//
// The sender carves its frames from blocks of its own (wire.Slab), as the
// paper's prototype writes each message into registered memory it sets up
// once: a frame costs an allocation per block, not one each. The frames of a
// block are this ring's only, so one a receiver keeps (a PREPARE consensus
// holds for a window) pins only this ring's other frames.
type Sender struct {
	rt    *router.Router
	proc  *sim.Proc
	inst  Instance
	slots int
	cap   int

	next uint64 // absolute index of the next message
	// mirror holds the last `slots` messages as encoded frames, for staging
	// and retransmission; staging refers to it by index. A frame is the one
	// buffer of its message: the network, every receiver, every
	// retransmission and the broadcaster's self-delivery share it, so it is
	// never written once sent — a later message in the slot gets a new one,
	// carved from slab.
	mirror []mirrored
	to     []ringTo
	slab   wire.Slab

	// drain is the pending call of drainFn, due at drainAt; drainFn is built
	// once so arming it allocates nothing.
	drain   sim.Timer
	drainAt sim.Time
	drainFn func()

	// AllocatedBytes approximates the local memory these rings pin (mirror
	// image + staging per receiver), for the Table 2 accounting.
	AllocatedBytes int
}

type mirrored struct {
	frame []byte   // channel tag | instance | slot | incarnation | checksum | message
	size  int      // payload bytes: what a WRITE's copy, checksum and wire time are charged on
	at    sim.Time // when Send took the message
}

// ringTo is the sender's view of one receiver's ring.
type ringTo struct {
	id ids.ID
	// busyUntil[slot] is when the NIC reports the slot's last WRITE complete;
	// the slot has a WRITE in flight while now < busyUntil[slot].
	busyUntil []sim.Time
	// staged queues the indices whose slot had a WRITE in flight (the second
	// ring of Fig 6); the bytes stay in the mirror, which always holds the
	// freshest message for the slot, the only one worth transmitting.
	staged []uint64
}

// NewSender creates the sending side of a ring with one receiver. slotCap
// bounds message size.
func NewSender(rt *router.Router, proc *sim.Proc, to ids.ID, inst Instance, slots, slotCap int) *Sender {
	return NewFanOut(rt, proc, []ids.ID{to}, inst, slots, slotCap)
}

// NewFanOut creates the sending side of one ring instance written to every
// host in to, in that order.
func NewFanOut(rt *router.Router, proc *sim.Proc, to []ids.ID, inst Instance, slots, slotCap int) *Sender {
	if slots <= 0 || slotCap <= 0 {
		panic(fmt.Sprintf("msgring: bad geometry slots=%d cap=%d", slots, slotCap))
	}
	s := &Sender{
		rt:             rt,
		proc:           proc,
		inst:           inst,
		slots:          slots,
		cap:            slotCap,
		mirror:         make([]mirrored, slots),
		to:             make([]ringTo, len(to)),
		AllocatedBytes: len(to) * 2 * slots * (slotCap + 20), // local mirror + staging area
	}
	s.drainFn = s.drainStaging
	for i := range s.to {
		s.to[i] = ringTo{id: to[i], busyUntil: make([]sim.Time, slots)}
	}
	return s
}

// Slots returns the ring's slot count.
func (s *Sender) Slots() int { return s.slots }

// Next returns the absolute index the next message will get.
func (s *Sender) Next() uint64 { return s.next }

// SentAt returns when the message at absolute index idx was sent. idx must
// still be in the mirror.
func (s *Sender) SentAt(idx uint64) sim.Time { return s.mirror[idx%uint64(s.slots)].at }

// Send transmits msg as the next message to every receiver, returning its
// absolute index. The frame is encoded once, into a slice of exact size carved
// from the sender's blocks, which the mirror keeps; msg itself is not
// retained, so the caller may reuse its buffer as soon as Send returns.
// Towards a receiver whose target slot has a WRITE in flight the message is
// staged; staging overflow evicts the oldest staged message (it is simply
// lost, as the primitive's tail semantics allow).
func (s *Sender) Send(msg []byte) uint64 {
	if len(msg) > s.cap {
		panic(fmt.Sprintf("msgring: message %dB exceeds slot capacity %dB", len(msg), s.cap))
	}
	idx := s.next
	s.next++
	slot := int(idx % uint64(s.slots))
	frame := appendFrame(s.slab.Take(frameLen(len(msg)))[:0],
		Frame{Inst: s.inst, Slot: uint32(slot), Inc: idx/uint64(s.slots) + 1, Msg: msg})
	s.mirror[slot] = mirrored{frame: frame, size: len(msg), at: s.proc.Now()}
	for i := range s.to {
		s.post(&s.to[i], idx)
	}
	s.armDrain()
	return idx
}

// Msg returns the message at absolute index idx as a view into its frame,
// capped so an append cannot write into it. idx must still be in the mirror.
// The view is immutable and stays valid for as long as anyone retains it.
func (s *Sender) Msg(idx uint64) []byte {
	m := &s.mirror[idx%uint64(s.slots)]
	return slices.Clip(m.frame[len(m.frame)-m.size:])
}

// Retransmit re-sends the message at absolute index idx to receiver number
// recv (its position in the constructor's list) if it is still in the mirror,
// i.e. among the last `slots` sent. Used by Tail Broadcast's retransmission
// loop. Reports whether the message was still available.
func (s *Sender) Retransmit(recv int, idx uint64) bool {
	if idx >= s.next || s.next-idx > uint64(s.slots) {
		return false
	}
	s.post(&s.to[recv], idx)
	s.armDrain()
	return true
}

// post writes the mirrored message idx into r's ring, or stages it behind the
// WRITE its slot has in flight.
func (s *Sender) post(r *ringTo, idx uint64) {
	slot := int(idx % uint64(s.slots))
	if s.proc.Now() >= r.busyUntil[slot] {
		s.write(r, slot)
		return
	}
	if len(r.staged) >= s.slots {
		// Evict the oldest, shifting in place so the append below fits the
		// queue's one array.
		r.staged = r.staged[:copy(r.staged, r.staged[1:])]
	}
	r.staged = append(r.staged, idx)
}

// write posts the slot's frame to r, the same slice to every receiver and
// on every retransmission. Every receiver's RDMA WRITE pays its copy and
// checksum time although the host computes them once per message.
func (s *Sender) write(r *ringTo, slot int) {
	m := &s.mirror[slot]
	s.proc.Charge(latmodel.CopyCost(m.size))
	s.proc.Charge(latmodel.ChecksumCost(m.size))
	// Over a real transport there is no asynchronous RDMA WRITE to await: the
	// socket backend's own write queue is the in-flight state, so the slot
	// completes synchronously and staging is never engaged (queueing and
	// tail-drop happen in the transport).
	if !s.proc.Engine().Realtime() {
		// The NIC reports WRITE completion after roughly one round trip.
		r.busyUntil[slot] = s.proc.Now().Add(2*latmodel.WireBase + latmodel.PerByte(m.size))
	}
	s.rt.SendFrame(r.id, m.frame)
}

// armDrain keeps one drain scheduled, at the next WRITE completion of a ring
// that has something staged: a staged message goes out at the first
// completion that finds it at the head of its queue with its slot free. An
// idle sender schedules nothing.
func (s *Sender) armDrain() {
	now := s.proc.Now()
	var next sim.Time
	for i := range s.to {
		if r := &s.to[i]; len(r.staged) > 0 {
			for _, t := range r.busyUntil {
				if t > now && (next == 0 || t < next) {
					next = t
				}
			}
		}
	}
	if next == 0 || s.drain.Pending() && s.drainAt <= next {
		return
	}
	s.drain.Cancel()
	s.drainAt = next
	s.drain = s.proc.After(next.Sub(now), s.drainFn)
}

// drainStaging runs at a WRITE completion. Ring by ring in receiver order,
// each ring that has a completion at this instant posts the staged messages
// whose slot has come free: its own completions are what wake a ring's
// staging queue, as the NIC's completion queue does.
func (s *Sender) drainStaging() {
	now := s.proc.Now()
	for i := range s.to {
		r := &s.to[i]
		if !slices.Contains(r.busyUntil, now) {
			continue
		}
		posted := 0
		for _, idx := range r.staged {
			slot := int(idx % uint64(s.slots))
			if now < r.busyUntil[slot] {
				break
			}
			posted++
			// Only transmit if this is still the freshest message for the slot.
			if s.next-idx <= uint64(s.slots) {
				s.write(r, slot)
			}
		}
		// The rest moves to the front of the queue's one array.
		r.staged = r.staged[:copy(r.staged, r.staged[posted:])]
	}
	s.armDrain()
}

// Receiver is the polling end of one ring. It stores a frame only when the
// frame arrives ahead of the read pointer; the next frame, with nothing
// stored ahead of it, is delivered straight away.
type Receiver struct {
	proc    *sim.Proc
	slots   int
	deliver func(idx uint64, msg []byte)
	idle    func()

	stored  []storedSlot // made at the first frame ahead of the read pointer
	nextIdx uint64
	// high is the highest index seen plus one. The sender is at least that
	// far, so its mirror holds nothing below high-slots: that much is lost
	// for good, everything from there on retransmission can still supply.
	high uint64

	// AllocatedBytes approximates the RDMA-exposed buffer size, for the
	// Table 2 accounting.
	AllocatedBytes int

	// Corrupt counts frames dropped for checksum mismatch (Byzantine or
	// torn writes).
	Corrupt uint64
}

type storedSlot struct {
	has  bool
	idx  uint64
	data []byte
}

// NewReceiver registers a receiving ring on the hub for messages from peer
// on the given instance. deliver is called in FIFO order of absolute index,
// skipping only messages the sender can no longer retransmit.
func NewReceiver(h *Hub, peer ids.ID, inst Instance, slots, slotCap int, deliver func(idx uint64, msg []byte)) *Receiver {
	key := ringKey{peer: peer, inst: inst}
	if _, dup := h.receivers[key]; dup {
		panic(fmt.Sprintf("msgring: receiver for %v/%d registered twice", peer, inst))
	}
	r := &Receiver{
		proc:           h.proc,
		slots:          slots,
		deliver:        deliver,
		AllocatedBytes: slots * (slotCap + 20),
	}
	h.receivers[key] = r
	h.byPeer[peer] = append(h.byPeer[peer], r)
	return r
}

// Next returns the read pointer: every message below it has been delivered
// or has left the sender's mirror. It is what a cumulative acknowledgement
// of this ring may claim.
func (r *Receiver) Next() uint64 { return r.nextIdx }

// OnIdle installs fn to run whenever an intact frame arrives and nothing is
// delivered: a retransmission of something already read or stored, or a frame
// held back behind a hole. Either way its sender is missing news about how
// far this receiver has read.
func (r *Receiver) OnIdle(fn func()) { r.idle = fn }

// Reset rewinds the receiver to index 0 and forgets every stored slot. Used
// when the sending peer provably cold-restarted (its ring writer starts over
// at absolute index 0): without the rewind the monotone nextIdx would make
// the receiver discard the fresh incarnation's frames forever.
func (r *Receiver) Reset() {
	r.nextIdx, r.high = 0, 0
	for i := range r.stored {
		r.stored[i] = storedSlot{}
	}
}

// ResetPeer rewinds every receiver registered on the hub for rings written
// by peer (its broadcast channel, its LOCKED channels in every group, its
// auxiliary channel). Called when peer cold-restarts.
func (h *Hub) ResetPeer(peer ids.ID) {
	for _, recv := range h.byPeer[peer] {
		recv.Reset()
	}
}

func (r *Receiver) accept(slot int, inc, chk uint64, data []byte) {
	if slot < 0 || slot >= r.slots || inc == 0 {
		return // malformed (Byzantine sender)
	}
	// The paper's receiver copies the slot to a private buffer and then
	// validates the checksum (Fig 6). The virtual-time cost of that copy is
	// charged here; the host-level copy itself is elided because the
	// delivered frame is immutable once sent (see Hub.onFrame).
	r.proc.Charge(latmodel.CopyCost(len(data)))
	if xcrypto.Checksum(r.proc, data) != chk {
		r.Corrupt++
		return
	}
	idx := (inc-1)*uint64(r.slots) + uint64(slot)
	if idx == r.nextIdx && r.high <= idx {
		// The next frame with nothing stored ahead: what scan would deliver.
		r.nextIdx, r.high = idx+1, idx+1
		r.deliver(idx, data)
		return
	}
	if idx < r.nextIdx {
		if r.idle != nil {
			r.idle() // a retransmission of something already read
		}
		return
	}
	if r.stored == nil {
		r.stored = make([]storedSlot, r.slots)
	}
	cur := &r.stored[slot]
	// A rewrite of what the slot already holds is a retransmission of
	// something this receiver has dealt with.
	news := !(cur.has && cur.idx >= idx)
	if news {
		cur.has, cur.idx, cur.data = true, idx, data
		r.high = max(r.high, idx+1)
	}
	if !(news && r.scan()) && r.idle != nil {
		r.idle()
	}
}

// scan delivers from the read pointer on, in index order, for as long as the
// next index is stored. A missing index is waited for while the sender's
// mirror can still supply it (Tail Broadcast retransmits what is not
// acknowledged) and skipped once it cannot: this realizes "advance the read
// pointer to the oldest undelivered message" from the paper, the oldest that
// is not lost for good. It reports whether it delivered anything.
func (r *Receiver) scan() (delivered bool) {
	for {
		if slots := uint64(r.slots); r.high > slots {
			r.nextIdx = max(r.nextIdx, r.high-slots)
		}
		s := &r.stored[r.nextIdx%uint64(r.slots)]
		if !s.has || s.idx != r.nextIdx {
			return delivered
		}
		// Settle the books before delivering: deliver may Reset this ring.
		// The slot keeps its index (the stale-rewrite test) but not the
		// bytes: once delivered they belong to whoever retained them.
		idx, data := s.idx, s.data
		s.data = nil
		r.nextIdx = idx + 1
		r.deliver(idx, data)
		delivered = true
	}
}
