// Package tbcast implements Tail Broadcast (paper §4.1–4.2): a best-effort
// broadcast with finite memory that guarantees correct receivers deliver
// the last 2t messages of a correct broadcaster, preserves integrity and
// no-duplication, but does NOT prevent equivocation (that is CTBcast's
// job, built on top).
//
// The implementation follows the paper: the broadcaster buffers its last
// 2t messages (the message-ring mirror) and retransmits them until
// acknowledged by all receivers; broadcasting into a full buffer evicts
// the oldest message. Transport is the ack-free message ring of §6.2;
// acknowledgements flow on a separate lightweight channel and are only
// used to stop retransmission. How often a listener acknowledges, and when
// and how much a broadcaster re-pushes, is one discipline of three rules:
//
//  1. Acks are cumulative and lazy. A listener sends one when half the
//     ring's slots are unacknowledged, when a frame arrives that delivers
//     nothing (a retransmission of something already read: the broadcaster
//     missed an ack; or a frame held back behind a lost one), or when
//     ackDelay has passed since the first unacknowledged delivery. That
//     keeps them off the critical path (one ack per message cost a replica
//     ~3 of its 7.2us per consensus slot) and still ahead of the first
//     retransmission deadline.
//  2. Delivery is in index order across a loss (msgring.Receiver): a missing
//     frame is waited for while the mirror can still supply it, so an ack
//     names the first message the receiver lacks and retransmission can
//     repair a loss anywhere in the stream, not only at its end.
//  3. Retransmission is per receiver and by age. A frame is re-pushed to a
//     receiver only when older than that receiver's measured ack round trip
//     (RFC 6298's smoothed estimate plus four deviations, never under
//     RetransmitInterval; no sample from a re-pushed frame). The clock
//     restarts on every ack progress. A round without progress doubles the
//     interval to the next, up to 64x, and from the second round on the
//     re-push is a single probe; any word from the receiver, on any channel
//     of this host, ends the probing and releases the rest. An ack lower
//     than the receiver's last means its ring was rewound (a cold restart
//     on either side) and is believed: the broadcaster rewinds with it.
//
// The tail contract under loss: before GST anything may be late; once the
// network is synchronous every receiver that is up delivers, in order and
// without duplicates, everything the mirror held when it became reachable
// and everything broadcast after, and the channel then goes quiet (no
// timer stays armed). Towards a receiver that is down the cost is one probe
// per channel per 64 intervals.
package tbcast

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RetransmitInterval is the youngest a frame is ever re-pushed: the
// retransmission age towards a receiver whose ack round trip has not been
// measured yet, and the floor under every measured one. Retransmission only
// matters before GST or across partitions; after GST the first transmission
// always arrives.
const RetransmitInterval = 200 * sim.Microsecond

// ackDelay is how long a delivery waits for company before its cumulative
// ack leaves: a quarter of the floor, so the ack is under way well before
// the frame's first retransmission deadline.
const ackDelay = RetransmitInterval / 4

// maxBackoff caps the doubling of the retransmission interval towards a
// receiver that makes no ack progress, at 64 intervals.
const maxBackoff = 6

// Instance identifies one broadcast channel; it must be unique per
// (broadcaster host, instance) pair and equal at broadcaster and listeners.
type Instance = msgring.Instance

// AckHub collects tail-broadcast acknowledgements arriving at one host and
// routes them to that host's broadcasters. One per host.
type AckHub struct {
	rt  *router.Router
	all []*Broadcaster // in registration order
}

// NewAckHub installs the hub on the host's ack channel.
func NewAckHub(rt *router.Router) *AckHub {
	h := &AckHub{rt: rt}
	rt.RegisterFrame(router.ChanRingAck, h.onAck)
	return h
}

// ackLen is the length of an ack frame: channel tag, instance, upTo.
const ackLen = 1 + 4 + 8

// AppendAck appends a listener's cumulative acknowledgement of channel inst
// to buf as a whole frame, channel tag first: it has read every message
// below upTo.
func AppendAck(buf []byte, inst Instance, upTo uint64) []byte {
	buf = append(buf, router.ChanRingAck)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(inst))
	return binary.LittleEndian.AppendUint64(buf, upTo)
}

// ParseAck decodes an acknowledgement, channel tag stripped.
func ParseAck(payload []byte) (inst Instance, upTo uint64, ok bool) {
	r := wire.NewReader(payload)
	inst, upTo = Instance(r.U32()), r.U64()
	return inst, upTo, r.Done() == nil
}

// onAck reads one ack frame, channel tag included, and releases it: its
// listener sent it to this host alone (Listener.ack).
func (h *AckHub) onAck(from ids.ID, frame []byte) {
	_, payload := router.Split(frame)
	inst, upTo, ok := ParseAck(payload)
	router.Release(frame)
	if !ok {
		return
	}
	for _, b := range h.all {
		if b.inst == inst {
			b.onAck(from, upTo)
		}
	}
	// An ack on one channel is word from its sender on all of them: whether
	// a host can be reached does not depend on the channel.
	for _, b := range h.all {
		b.heard(from)
	}
}

// Broadcaster is the sending side of one tail-broadcast channel.
type Broadcaster struct {
	proc *sim.Proc
	inst Instance
	// ring writes the channel's one message stream into every receiver's
	// ring; its mirror is the paper's buffer of the last 2t messages.
	ring *msgring.Sender
	to   []receiver // send order, as configured

	selfDeliver func(idx uint64, msg []byte)
	// selfFn adapts selfDeliver to the engine's closure-free message
	// events; built once in NewBroadcaster.
	selfFn  sim.MsgHandler
	stopped bool
}

// receiver is what the broadcaster keeps per receiver: how far it has
// acknowledged, an estimate of its ack round trip in the manner of RFC 6298,
// and its retransmission clock.
type receiver struct {
	id    ids.ID
	acked uint64 // highest idx acked + 1 (i.e. count)
	// Frames below repushed may have gone to this receiver more than once,
	// so their acks say nothing about the round trip (Karn's rule).
	repushed     uint64
	srtt, rttvar sim.Duration // smoothed send -> ack time and its deviation; 0 until sampled
	// The clock started when the oldest owed frame was sent or at since (the
	// last ack progress, retransmission round or ResetReceiver), whichever
	// is later, and expires age()<<backoff after that; backoff counts the
	// rounds since the receiver last made ack progress.
	since   sim.Time
	backoff uint
	timer   sim.Timer
	expire  func() // built once: arming the timer allocates nothing
}

// age is how old a frame must be before it is re-pushed to r: the ack round
// trip with RFC 6298's margin, never under the floor.
func (r *receiver) age() sim.Duration { return max(RetransmitInterval, r.srtt+4*r.rttvar) }

// sample folds one measured send -> ack time into the estimate (RFC 6298 §2).
func (r *receiver) sample(rtt sim.Duration) {
	if r.srtt == 0 {
		r.srtt, r.rttvar = rtt, rtt/2
		return
	}
	r.rttvar += (max(r.srtt-rtt, rtt-r.srtt) - r.rttvar) / 4
	r.srtt += (rtt - r.srtt) / 8
}

// Config assembles a Broadcaster.
type Config struct {
	RT        *router.Router
	Proc      *sim.Proc
	AckHub    *AckHub
	Instance  Instance
	Receivers []ids.ID // remote receivers (exclude self)
	// Slots is the ring size; per the paper it should be 2t for a CTBcast
	// tail of t.
	Slots   int
	SlotCap int
	// SelfDeliver, if non-nil, receives every broadcast locally (the
	// broadcaster is also a receiver in Algorithm 1).
	SelfDeliver func(idx uint64, msg []byte)
}

// NewBroadcaster creates the sending side.
func NewBroadcaster(cfg Config) *Broadcaster {
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("tbcast: bad slots %d", cfg.Slots))
	}
	b := &Broadcaster{
		proc:        cfg.Proc,
		inst:        cfg.Instance,
		ring:        msgring.NewFanOut(cfg.RT, cfg.Proc, cfg.Receivers, cfg.Instance, cfg.Slots, cfg.SlotCap),
		to:          make([]receiver, len(cfg.Receivers)),
		selfDeliver: cfg.SelfDeliver,
	}
	for i, id := range cfg.Receivers {
		i := i
		b.to[i] = receiver{id: id, expire: func() { b.onExpiry(i) }}
	}
	if b.selfDeliver != nil {
		b.selfFn = func(idx int, msg []byte) { b.selfDeliver(uint64(idx), msg) }
	}
	if cfg.AckHub != nil {
		if slices.ContainsFunc(cfg.AckHub.all, func(o *Broadcaster) bool { return o.inst == cfg.Instance }) {
			panic(fmt.Sprintf("tbcast: instance %d registered twice", cfg.Instance))
		}
		cfg.AckHub.all = append(cfg.AckHub.all, b)
	}
	return b
}

// floor returns the oldest index the mirror still holds.
func (b *Broadcaster) floor() uint64 {
	if next, slots := b.ring.Next(), uint64(b.ring.Slots()); next > slots {
		return next - slots
	}
	return 0
}

// owed returns the first index retransmission still owes r: its ack count
// (the receiver delivers in index order, so that is the first message it
// lacks), or the mirror floor if the ack lies below it (what fell out of the
// mirror is unrecoverable). Nothing is owed when it equals ring.Next().
func (b *Broadcaster) owed(r *receiver) uint64 { return max(r.acked, b.floor()) }

// Stop halts retransmission (for teardown in tests/benches).
func (b *Broadcaster) Stop() {
	b.stopped = true
	for i := range b.to {
		b.to[i].timer.Cancel()
	}
}

// Next returns the absolute index the next broadcast will get.
func (b *Broadcaster) Next() uint64 { return b.ring.Next() }

// Msg returns broadcast idx as a view into its ring frame (msgring.Sender.Msg):
// immutable, valid for as long as anyone retains it. idx must still be in the
// mirror.
func (b *Broadcaster) Msg(idx uint64) []byte { return b.ring.Msg(idx) }

// ResetReceiver forgets everything the given receiver acknowledged and
// restarts its retransmission clock, so the whole retained tail is re-pushed
// to it one interval from now. Used when the receiver provably cold-restarted:
// its fresh ring receiver holds nothing, but the pre-restart acks would
// otherwise mark it fully caught up and an idle channel would never send it
// the tail again.
func (b *Broadcaster) ResetReceiver(to ids.ID) {
	if i := b.index(to); i >= 0 {
		b.rewind(&b.to[i], 0)
	}
}

// rewind takes r back to having acknowledged only what lies below upTo.
func (b *Broadcaster) rewind(r *receiver, upTo uint64) {
	r.timer.Cancel()
	// What the mirror holds has gone to this receiver once already (to its
	// previous incarnation, if it is reborn): no round-trip sample from it.
	r.acked, r.repushed = upTo, b.ring.Next()
	r.since, r.backoff = b.proc.Now(), 0
	b.arm(r)
}

// index returns id's position among the receivers, -1 if it is none. It runs
// for every broadcaster of the host on every ack.
func (b *Broadcaster) index(id ids.ID) int {
	for i := range b.to {
		if b.to[i].id == id {
			return i
		}
	}
	return -1
}

// AllocatedBytes returns the ring memory pinned by this channel's sender.
func (b *Broadcaster) AllocatedBytes() int { return b.ring.AllocatedBytes }

// Broadcast sends msg to every receiver (and self-delivers), returning the
// message's absolute index within this channel. msg is not retained: callers
// may reuse its buffer — e.g. an encode buffer they keep — as soon as
// Broadcast returns: the message is copied into its ring frame, and the
// self-delivery is a posted event that reads the frame.
func (b *Broadcaster) Broadcast(msg []byte) uint64 {
	idx := b.ring.Send(msg)
	if b.selfDeliver != nil {
		// Self-delivery is asynchronous, so it takes the message out of the
		// ring frame, not out of the caller's buffer: the frame is immutable
		// once sent and shared with the mirror and every receiver.
		b.proc.PostMsg(b.selfFn, int(idx), b.ring.Msg(idx))
	}
	for i := range b.to {
		b.arm(&b.to[i])
	}
	return idx
}

func (b *Broadcaster) onAck(from ids.ID, upTo uint64) {
	i := b.index(from)
	if i < 0 || upTo > b.ring.Next() {
		return // not a receiver, or more than was ever sent
	}
	switch r := &b.to[i]; {
	case upTo > r.acked:
		// The oldest newly acked frame waited longest for this ack.
		if first := r.acked; first >= r.repushed && first >= b.floor() {
			r.sample(b.proc.Since(b.ring.SentAt(first)))
		}
		r.acked = upTo
		b.restart(i)
	case upTo < r.acked:
		// Acks are cumulative and links are FIFO, so a lower one means the
		// receiver's ring was rewound: it is reborn, or it took this host for
		// reborn after acknowledging, out of its old ring's state, frames of
		// this incarnation it has since forgotten. Its word is what it has.
		b.rewind(r, upTo)
	default:
		b.heard(from)
	}
}

// heard is any word from a receiver, on this channel or another of this
// host: if it was being probed, the probing ends.
func (b *Broadcaster) heard(from ids.ID) {
	if i := b.index(from); i >= 0 && b.to[i].backoff > 1 {
		b.restart(i)
	}
}

// restart restarts receiver i's retransmission clock on ack progress or, if
// it was being probed, on any word from it; in that case what the probes
// stood in for is released at once.
func (b *Broadcaster) restart(i int) {
	r := &b.to[i]
	probing := r.backoff > 1
	if r.backoff > 0 {
		r.timer.Cancel() // armed for an interval that no longer applies
	}
	r.since, r.backoff = b.proc.Now(), 0
	if probing {
		b.repush(i)
	}
	b.arm(r)
}

// left returns how long r's retransmission clock still has to run. r is owed
// something.
func (b *Broadcaster) left(r *receiver) sim.Duration {
	return r.age()<<r.backoff - b.proc.Since(max(r.since, b.ring.SentAt(b.owed(r))))
}

// arm schedules r's retransmission timer for when its clock expires, if it
// is owed anything and the timer is not already pending. A receiver that has
// acknowledged everything the mirror holds arms nothing, so a quiescent
// system drains its event queue. Ack progress moves the expiry later without
// touching a pending timer: it fires early, finds the clock still running
// and re-arms.
func (b *Broadcaster) arm(r *receiver) {
	if !b.stopped && !r.timer.Pending() && b.owed(r) < b.ring.Next() {
		r.timer = b.proc.After(b.left(r), r.expire)
	}
}

func (b *Broadcaster) onExpiry(i int) {
	r := &b.to[i]
	if b.owed(r) < b.ring.Next() && b.left(r) <= 0 {
		b.repush(i)
	}
	b.arm(r)
}

// repush is one retransmission round towards receiver i. The first round
// since its last ack progress re-pushes every owed frame older than its age
// (and is no round at all if there is none). Later rounds, each twice as long
// after the one before, send a single probe: the oldest owed frame, which is
// the one the receiver's ring is waiting for — or the newest, if the
// receiver's ack lies below the mirror floor, because only that tells its
// ring how much has left the mirror and so what to wait for. The ack a probe
// draws releases the rest (onAck).
func (b *Broadcaster) repush(i int) {
	r := &b.to[i]
	lo, next := b.owed(r), b.ring.Next()
	switch first := lo; {
	case r.backoff == 0:
		for age := r.age(); lo < next && b.proc.Since(b.ring.SentAt(lo)) >= age; lo++ {
			b.ring.Retransmit(i, lo)
		}
		if lo == first {
			return
		}
	case r.acked < lo:
		b.ring.Retransmit(i, next-1)
		lo = next
	default:
		b.ring.Retransmit(i, lo)
		lo++
	}
	r.repushed = max(r.repushed, lo)
	r.since, r.backoff = b.proc.Now(), min(r.backoff+1, maxBackoff)
}

// Listener is the receiving side of one tail-broadcast channel at one host.
type Listener struct {
	rt          *router.Router
	proc        *sim.Proc
	broadcaster ids.ID
	inst        Instance
	recv        *msgring.Receiver

	half  uint64 // this many unacknowledged deliveries force an ack: half the ring
	acked uint64 // the cumulative ack last sent
	timer sim.Timer
	ackFn func() // l.ack, built once: arming the timer allocates nothing; also the ring's idle hook
}

// Listen registers a listener for broadcasts from the given broadcaster on
// the host's ring hub. deliver runs in FIFO index order (gaps allowed once
// messages fall out of the tail).
func Listen(hub *msgring.Hub, rt *router.Router, proc *sim.Proc, broadcaster ids.ID, inst Instance, slots, slotCap int, deliver func(idx uint64, msg []byte)) *Listener {
	l := &Listener{rt: rt, proc: proc, broadcaster: broadcaster, inst: inst, half: uint64(slots) / 2}
	l.ackFn = l.ack
	l.recv = msgring.NewReceiver(hub, broadcaster, inst, slots, slotCap, func(idx uint64, msg []byte) {
		deliver(idx, msg)
		l.delivered()
	})
	// A frame that delivers nothing means the broadcaster is missing news:
	// an ack was lost, or a frame was and this one is held back behind it.
	l.recv.OnIdle(l.ackFn)
	return l
}

// AllocatedBytes returns the ring memory pinned by this listener.
func (l *Listener) AllocatedBytes() int { return l.recv.AllocatedBytes }

// delivered runs after every delivery: the ack leaves now if half the ring
// is unacknowledged, otherwise with whatever else arrives within ackDelay of
// the first unacknowledged delivery.
func (l *Listener) delivered() {
	next := l.recv.Next()
	if next < l.acked {
		l.acked = 0 // the ring was rewound: its broadcaster cold-restarted
	}
	if next-l.acked >= l.half {
		l.ack()
	} else if !l.timer.Pending() {
		l.timer = l.proc.After(ackDelay, l.ackFn)
	}
}

// ack sends one cumulative acknowledgement of everything the ring has read,
// in a frame from the router's free list that the broadcaster's hub releases.
func (l *Listener) ack() {
	l.timer.Cancel()
	l.acked = l.recv.Next()
	frame := AppendAck(router.Frame(ackLen)[:0], l.inst, l.acked)
	l.proc.Charge(latmodel.DispatchCost)
	l.rt.SendFrame(l.broadcaster, frame)
}
