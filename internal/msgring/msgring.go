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
// A second staging buffer queues messages whose target slot has an RDMA
// WRITE still in flight (the NIC has not reported completion); the staging
// buffer evicts its oldest entry when full, preserving boundedness.
package msgring

import (
	"fmt"

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
	r := wire.NewReader(payload)
	inst := Instance(r.U32())
	slot := int(r.U32())
	inc := r.U64()
	chk := r.U64()
	// Zero-copy borrow: the router allocates a fresh buffer per delivered
	// message and never recycles it, so the view stays valid for as long as
	// the receiver (or anyone downstream) retains it. A Byzantine sender
	// cannot mutate it either — the router copied out of the sender's
	// buffer at send time.
	data := r.BytesView()
	if r.Done() != nil {
		return // malformed frame from a Byzantine sender
	}
	recv := h.receivers[ringKey{peer: from, inst: inst}]
	if recv == nil {
		return
	}
	recv.accept(slot, inc, chk, data)
}

// Sender is the writing end of one ring, bound to a single receiver host.
type Sender struct {
	rt    *router.Router
	proc  *sim.Proc
	to    ids.ID
	inst  Instance
	slots int
	cap   int

	next     uint64 // absolute index of the next message
	inFlight []bool
	staged   []stagedMsg // bounded staging buffer (second ring of Fig 6)
	// complete[slot] is the NIC WRITE-completion callback for the slot,
	// built once so posting a frame allocates no closure.
	complete []func()

	// Retransmit support: mirror of the last `slots` messages.
	mirror [][]byte

	// AllocatedBytes approximates the local memory this ring pins
	// (mirror image + staging), for the Table 2 accounting.
	AllocatedBytes int
}

// stagedMsg queues an absolute index whose slot had a WRITE in flight; the
// payload itself lives in the mirror (always the freshest message for the
// slot, which is the only one worth transmitting).
type stagedMsg struct {
	idx uint64
}

// NewSender creates the sending side. slotCap bounds message size.
func NewSender(rt *router.Router, proc *sim.Proc, to ids.ID, inst Instance, slots, slotCap int) *Sender {
	if slots <= 0 || slotCap <= 0 {
		panic(fmt.Sprintf("msgring: bad geometry slots=%d cap=%d", slots, slotCap))
	}
	s := &Sender{
		rt:             rt,
		proc:           proc,
		to:             to,
		inst:           inst,
		slots:          slots,
		cap:            slotCap,
		inFlight:       make([]bool, slots),
		mirror:         make([][]byte, slots),
		complete:       make([]func(), slots),
		AllocatedBytes: 2 * slots * (slotCap + 20), // local mirror + staging area
	}
	for i := range s.complete {
		slot := i
		s.complete[slot] = func() {
			s.inFlight[slot] = false
			s.drainStaging()
		}
	}
	return s
}

// Slots returns the ring's slot count.
func (s *Sender) Slots() int { return s.slots }

// Send transmits msg as the next message, returning its absolute index.
// If the target slot has a WRITE in flight the message is staged; staging
// overflow evicts the oldest staged message (it is simply lost, as the
// primitive's tail semantics allow).
func (s *Sender) Send(msg []byte) uint64 {
	idx := s.next
	s.next++
	s.post(idx, msg)
	return idx
}

// Retransmit re-sends the message at absolute index idx if it is still in
// the mirror (i.e. among the last `slots` sent). Used by Tail Broadcast's
// retransmission loop. Reports whether the message was still available.
func (s *Sender) Retransmit(idx uint64) bool {
	if idx >= s.next || s.next-idx > uint64(s.slots) {
		return false
	}
	data := s.mirror[idx%uint64(s.slots)]
	if data == nil {
		return false
	}
	s.post(idx, data)
	return true
}

func (s *Sender) post(idx uint64, msg []byte) {
	slot := s.storeMirror(idx, msg)
	if slot < 0 {
		return // staged
	}
	s.transmit(idx, slot, s.mirror[slot])
}

// storeMirror copies msg into the mirror slot for idx, REUSING the slot's
// previous buffer (the mirror is the only owner of its buffers: frames copy
// out of it before the network sees them, and staging references the mirror
// by index). Returns the slot to transmit, or -1 if the message was staged
// behind an in-flight WRITE.
func (s *Sender) storeMirror(idx uint64, msg []byte) int {
	if len(msg) > s.cap {
		panic(fmt.Sprintf("msgring: message %dB exceeds slot capacity %dB", len(msg), s.cap))
	}
	slot := int(idx % uint64(s.slots))
	s.mirror[slot] = append(s.mirror[slot][:0], msg...)
	if s.inFlight[slot] {
		// Slot has a WRITE in flight: stage the message.
		if len(s.staged) >= s.slots {
			s.staged = s.staged[1:] // evict oldest
		}
		s.staged = append(s.staged, stagedMsg{idx: idx})
		return -1
	}
	return slot
}

func (s *Sender) transmit(idx uint64, slot int, data []byte) {
	s.proc.Charge(latmodel.CopyCost(len(data)))
	chk := xcrypto.Checksum(s.proc, data)
	w := wire.GetWriter(32 + len(data))
	s.encodeFrame(w, idx, slot, chk, data)
	s.sendFrame(slot, w.Finish(), len(data))
	wire.PutWriter(w) // router.Send copied the frame; safe to recycle
}

// encodeFrame builds the ring frame for one slot write.
func (s *Sender) encodeFrame(w *wire.Writer, idx uint64, slot int, chk uint64, data []byte) {
	inc := idx/uint64(s.slots) + 1
	w.U32(uint32(s.inst))
	w.U32(uint32(slot))
	w.U64(inc)
	w.U64(chk)
	w.Bytes(data)
}

// sendFrame posts one prebuilt frame and schedules the WRITE completion.
func (s *Sender) sendFrame(slot int, frame []byte, dataLen int) {
	if s.proc.Engine().Realtime() {
		// Over a real transport there is no asynchronous RDMA WRITE to
		// await: the socket backend's own write queue is the in-flight
		// state, so the slot completes synchronously and staging is never
		// engaged (queueing and tail-drop happen in the transport).
		s.rt.Send(s.to, router.ChanRing, frame)
		return
	}
	s.inFlight[slot] = true
	s.rt.Send(s.to, router.ChanRing, frame)
	// The NIC reports WRITE completion after roughly one round trip.
	s.proc.PostAfter(2*latmodel.WireBase+latmodel.PerByte(dataLen), s.complete[slot])
}

// ShareMirror makes the rings of one broadcast channel keep a single mirror
// between them. Senders that are only ever driven together through SendAll
// stay index-aligned and hold the same last `slots` messages; a mirror per
// receiver retains each of those messages once per receiver for nothing.
func ShareMirror(senders []*Sender) {
	for i, s := range senders {
		if s.slots != senders[0].slots {
			panic("msgring: ShareMirror needs rings of one geometry")
		}
		if i > 0 {
			s.mirror = senders[0].mirror
		}
	}
}

// SendAll transmits msg as the next message on every ring in senders,
// encoding the wire frame AT MOST ONCE in the common case (all rings
// aligned on the same next index, geometry and instance, no slot busy).
// Tail Broadcast uses this to fan one broadcast out to all receivers
// without re-encoding per receiver. Virtual-time costs are still charged
// per ring, mirroring the per-receiver RDMA WRITEs of the real system.
// Returns the absolute index assigned (senders always stay index-aligned
// when driven exclusively through SendAll/Send in lockstep).
func SendAll(senders []*Sender, msg []byte) uint64 {
	if len(senders) == 0 {
		return 0
	}
	first := senders[0]
	idx := first.next
	shared := true
	for _, s := range senders[1:] {
		if s.next != idx || s.slots != first.slots || s.inst != first.inst {
			shared = false
			break
		}
	}
	if !shared {
		// Rings diverged (should not happen under lockstep use): fall back
		// to the per-ring path.
		for _, s := range senders {
			s.Send(msg)
		}
		return idx
	}
	var frame *wire.Writer
	var chk uint64
	for _, s := range senders {
		s.next++
		slot := s.storeMirror(idx, msg)
		if slot < 0 {
			continue // staged behind an in-flight WRITE on this ring
		}
		data := s.mirror[slot]
		// Same costs as the per-ring path: each RDMA WRITE pays its copy
		// and checksum time even though the host computes them once.
		s.proc.Charge(latmodel.CopyCost(len(data)))
		s.proc.Charge(latmodel.ChecksumCost(len(data)))
		if frame == nil {
			chk = xcrypto.ChecksumNoCharge(data)
			frame = wire.GetWriter(32 + len(data))
			s.encodeFrame(frame, idx, slot, chk, data)
		}
		s.sendFrame(slot, frame.Finish(), len(data))
	}
	if frame != nil {
		wire.PutWriter(frame)
	}
	return idx
}

func (s *Sender) drainStaging() {
	for len(s.staged) > 0 {
		m := s.staged[0]
		slot := int(m.idx % uint64(s.slots))
		if s.inFlight[slot] {
			return
		}
		// Only transmit if this is still the freshest message for the slot.
		s.staged = s.staged[1:]
		if cur := s.mirror[slot]; cur != nil && s.next-m.idx <= uint64(s.slots) {
			s.transmit(m.idx, slot, cur)
		}
	}
}

// Receiver is the polling end of one ring.
type Receiver struct {
	proc    *sim.Proc
	slots   int
	deliver func(idx uint64, msg []byte)

	stored  []storedSlot
	nextIdx uint64
	// undelivered counts the stored slots scan still owes a delivery
	// (has && idx >= nextIdx), so scan walks the ring only when one exists
	// and is not the next index in line.
	undelivered int

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
// skipping overwritten messages.
func NewReceiver(h *Hub, peer ids.ID, inst Instance, slots, slotCap int, deliver func(idx uint64, msg []byte)) *Receiver {
	key := ringKey{peer: peer, inst: inst}
	if _, dup := h.receivers[key]; dup {
		panic(fmt.Sprintf("msgring: receiver for %v/%d registered twice", peer, inst))
	}
	r := &Receiver{
		proc:           h.proc,
		slots:          slots,
		deliver:        deliver,
		stored:         make([]storedSlot, slots),
		AllocatedBytes: slots * (slotCap + 20),
	}
	h.receivers[key] = r
	h.byPeer[peer] = append(h.byPeer[peer], r)
	return r
}

// NextIndex returns the absolute index of the next message the receiver
// expects to deliver.
func (r *Receiver) NextIndex() uint64 { return r.nextIdx }

// Reset rewinds the receiver to index 0 and forgets every stored slot. Used
// when the sending peer provably cold-restarted (its ring writer starts over
// at absolute index 0): without the rewind the monotone nextIdx would make
// the receiver discard the fresh incarnation's frames forever.
func (r *Receiver) Reset() {
	r.nextIdx = 0
	r.undelivered = 0
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
	// delivered buffer is already private (see Hub.onFrame).
	r.proc.Charge(latmodel.CopyCost(len(data)))
	if xcrypto.Checksum(r.proc, data) != chk {
		r.Corrupt++
		return
	}
	idx := (inc-1)*uint64(r.slots) + uint64(slot)
	cur := &r.stored[slot]
	if cur.has && cur.idx >= idx {
		return // stale rewrite (retransmission of something newer already here)
	}
	if idx >= r.nextIdx && !(cur.has && cur.idx >= r.nextIdx) {
		r.undelivered++ // (overwriting an undelivered message replaces it)
	}
	cur.has, cur.idx, cur.data = true, idx, data
	r.scan()
}

// scan delivers every stored message with index >= nextIdx in increasing
// order. This realizes "advance the read pointer to the oldest undelivered
// message" from the paper: overwritten indices are skipped permanently.
func (r *Receiver) scan() {
	for r.undelivered > 0 {
		// Common case: the next index in line is there. Otherwise there is
		// a gap (lost or overwritten messages): find the oldest survivor.
		s := &r.stored[r.nextIdx%uint64(r.slots)]
		if !s.has || s.idx != r.nextIdx {
			s = nil
			for i := range r.stored {
				c := &r.stored[i]
				if c.has && c.idx >= r.nextIdx && (s == nil || c.idx < s.idx) {
					s = c
				}
			}
		}
		// Settle the books before delivering: deliver may Reset this ring.
		// The slot keeps its index (the stale-rewrite test) but not the
		// bytes: once delivered they belong to whoever retained them.
		idx, data := s.idx, s.data
		s.data = nil
		r.undelivered--
		r.nextIdx = idx + 1
		r.deliver(idx, data)
	}
}
