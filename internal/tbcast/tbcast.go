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
// used to stop retransmission — they are never on the critical path.
package tbcast

import (
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RetransmitInterval is how often the broadcaster re-pushes unacked
// messages. Retransmission only matters before GST or across partitions;
// after GST the first transmission always arrives.
const RetransmitInterval = 200 * sim.Microsecond

// Instance identifies one broadcast channel; it must be unique per
// (broadcaster host, instance) pair and equal at broadcaster and listeners.
type Instance = msgring.Instance

// AckHub collects tail-broadcast acknowledgements arriving at one host and
// routes them to that host's broadcasters. One per host.
type AckHub struct {
	rt          *router.Router
	broadcaster map[Instance]*Broadcaster
}

// NewAckHub installs the hub on the host's ack channel.
func NewAckHub(rt *router.Router) *AckHub {
	h := &AckHub{rt: rt, broadcaster: make(map[Instance]*Broadcaster)}
	rt.Register(router.ChanRingAck, h.onAck)
	return h
}

func (h *AckHub) onAck(from ids.ID, payload []byte) {
	r := wire.NewReader(payload)
	inst := Instance(r.U32())
	upTo := r.U64()
	if r.Done() != nil {
		return
	}
	b := h.broadcaster[inst]
	if b == nil {
		return
	}
	b.onAck(from, upTo)
}

// Broadcaster is the sending side of one tail-broadcast channel.
type Broadcaster struct {
	proc *sim.Proc
	// ring writes the channel's one message stream into every receiver's
	// ring; its mirror is the paper's buffer of the last 2t messages.
	ring      *msgring.Sender
	receivers []ids.ID // send order, as configured
	acked     []uint64 // per receiver: highest idx acked + 1 (i.e. count)

	selfDeliver func(idx uint64, msg []byte)
	// selfFn adapts selfDeliver to the engine's closure-free message
	// events; built once in NewBroadcaster.
	selfFn     sim.MsgHandler
	retransmit sim.Timer
	stopped    bool
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

// NewBroadcaster creates the sending side and starts its retransmission
// loop.
func NewBroadcaster(cfg Config) *Broadcaster {
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("tbcast: bad slots %d", cfg.Slots))
	}
	b := &Broadcaster{
		proc:        cfg.Proc,
		ring:        msgring.NewFanOut(cfg.RT, cfg.Proc, cfg.Receivers, cfg.Instance, cfg.Slots, cfg.SlotCap),
		receivers:   cfg.Receivers,
		acked:       make([]uint64, len(cfg.Receivers)),
		selfDeliver: cfg.SelfDeliver,
	}
	if b.selfDeliver != nil {
		b.selfFn = func(idx int, msg []byte) { b.selfDeliver(uint64(idx), msg) }
	}
	if cfg.AckHub != nil {
		if _, dup := cfg.AckHub.broadcaster[cfg.Instance]; dup {
			panic(fmt.Sprintf("tbcast: instance %d registered twice", cfg.Instance))
		}
		cfg.AckHub.broadcaster[cfg.Instance] = b
	}
	return b
}

// owed returns the first index the retransmission loop still owes receiver
// i: its ack count, or the mirror floor if the ack lies below it (what fell
// out of the mirror is unrecoverable).
func (b *Broadcaster) owed(i int) uint64 {
	lo := uint64(0)
	if next, slots := b.ring.Next(), uint64(b.ring.Slots()); next > slots {
		lo = next - slots
	}
	return max(b.acked[i], lo)
}

// unacked reports whether any receiver is missing messages the mirror can
// still supply; only those keep the retransmission loop alive.
func (b *Broadcaster) unacked() bool {
	for i := range b.acked {
		if b.owed(i) < b.ring.Next() {
			return true
		}
	}
	return false
}

// Stop halts the retransmission loop (for teardown in tests/benches).
func (b *Broadcaster) Stop() {
	b.stopped = true
	b.retransmit.Cancel()
}

// Next returns the absolute index the next broadcast will get.
func (b *Broadcaster) Next() uint64 { return b.ring.Next() }

// ResetReceiver forgets everything the given receiver acknowledged, so the
// retransmission loop re-pushes the whole retained tail to it. Used when
// the receiver provably cold-restarted: its fresh ring receiver holds
// nothing, but the pre-restart acks would otherwise mark it fully caught
// up and an idle channel would never send it the tail again.
func (b *Broadcaster) ResetReceiver(to ids.ID) {
	if i := slices.Index(b.receivers, to); i >= 0 {
		b.acked[i] = 0
		b.armRetransmit()
	}
}

// AllocatedBytes returns the ring memory pinned by this channel's sender.
func (b *Broadcaster) AllocatedBytes() int { return b.ring.AllocatedBytes }

// Broadcast sends msg to every receiver (and self-delivers), returning the
// message's absolute index within this channel. msg is not retained: callers
// may reuse its buffer — e.g. a pooled wire.Writer — as soon as Broadcast
// returns.
func (b *Broadcaster) Broadcast(msg []byte) uint64 {
	idx := b.ring.Send(msg)
	if b.selfDeliver != nil {
		// Self-delivery is asynchronous, so it needs a private copy: the
		// caller reclaims msg's buffer as soon as Broadcast returns.
		cp := make([]byte, len(msg))
		copy(cp, msg)
		b.proc.PostMsg(b.selfFn, int(idx), cp)
	}
	b.armRetransmit()
	return idx
}

func (b *Broadcaster) onAck(from ids.ID, upTo uint64) {
	if i := slices.Index(b.receivers, from); i >= 0 && upTo > b.acked[i] {
		b.acked[i] = upTo
	}
}

// armRetransmit schedules the retransmission loop if it is not already
// pending. The loop disarms itself once every retransmittable message has
// been acked, so a quiescent system drains its event queue.
func (b *Broadcaster) armRetransmit() {
	if b.stopped || b.retransmit.Pending() || !b.unacked() {
		return
	}
	b.retransmit = b.proc.After(RetransmitInterval, func() {
		if b.stopped {
			return
		}
		for i := range b.receivers {
			for idx := b.owed(i); idx < b.ring.Next(); idx++ {
				b.ring.Retransmit(i, idx)
			}
		}
		b.armRetransmit()
	})
}

// Listener is the receiving side of one tail-broadcast channel at one host.
type Listener struct {
	rt          *router.Router
	proc        *sim.Proc
	broadcaster ids.ID
	inst        Instance
	recv        *msgring.Receiver
}

// Listen registers a listener for broadcasts from the given broadcaster on
// the host's ring hub. deliver runs in FIFO index order (gaps allowed once
// messages fall out of the tail).
func Listen(hub *msgring.Hub, rt *router.Router, proc *sim.Proc, broadcaster ids.ID, inst Instance, slots, slotCap int, deliver func(idx uint64, msg []byte)) *Listener {
	l := &Listener{rt: rt, proc: proc, broadcaster: broadcaster, inst: inst}
	l.recv = msgring.NewReceiver(hub, broadcaster, inst, slots, slotCap, func(idx uint64, msg []byte) {
		deliver(idx, msg)
		l.ack(idx)
	})
	return l
}

// AllocatedBytes returns the ring memory pinned by this listener.
func (l *Listener) AllocatedBytes() int { return l.recv.AllocatedBytes }

func (l *Listener) ack(idx uint64) {
	w := wire.GetWriter(16)
	w.U32(uint32(l.inst))
	w.U64(idx + 1)
	l.proc.Charge(latmodel.DispatchCost)
	l.rt.Send(l.broadcaster, router.ChanRingAck, w.Finish())
	wire.PutWriter(w)
}
