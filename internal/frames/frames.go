// Package frames says what a transport frame of a uBFT deployment carries,
// layer by layer, for fault-injection rules, monitors and test audits that
// must name "this message" across every retransmission and every layer it
// rides in: a consensus message inside a CTBcast LOCK, LOCKED or SIGNED,
// inside a tail-broadcast ring frame.
//
// Describe promises three things. It decodes only through the codecs the
// owning layers run themselves (router.Split, msgring.ParseFrame,
// tbcast.ParseAck, consensus.RingOf, ctbcast.ParseMsg, consensus.ReadHeader),
// so it reads each layout exactly as the protocol does and keeps no copy of
// one. It tolerates any bytes: a layer it cannot decode ends the description
// there, and it never panics. And it is diagnostic only: no protocol path
// calls it, and nothing it returns aliases the frame.
package frames

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/tbcast"
	"repro/internal/wire"
)

// Desc is what one frame carries. Fields a frame does not carry are zero.
type Desc struct {
	// Chan is the router channel (wire.Chan*); 0 for an empty frame.
	Chan uint8
	// Ring is set for a ring frame or a ring acknowledgement: Inst is its
	// ring instance, Owner the index of the replica whose instance block
	// holds it and Kind which of the owner's channels it is.
	Ring  bool
	Inst  msgring.Instance
	Owner int
	Kind  consensus.RingKind
	// CTB is the CTBcast tag (wire.RingTag*) of a LOCK, LOCKED, SIGNED or
	// SUMMARY, and K its identifier.
	CTB uint8
	K   uint64
	// Header is the consensus or client RPC message the frame carries, if
	// any (Tag 0 if none): a CTBcast message's, an auxiliary channel's, a
	// direct message's or an RPC's.
	consensus.Header
}

// Describe says what frame, channel tag first, carries in a deployment
// whose consensus groups have n replicas.
func Describe(n int, frame []byte) Desc {
	ch, payload := router.Split(frame)
	d := Desc{Chan: ch}
	switch ch {
	case router.ChanRing:
		f, ok := msgring.ParseFrame(payload)
		if !ok {
			return d
		}
		d.ring(n, f.Inst)
		if d.Kind == consensus.RingAux {
			d.header(f.Msg)
		} else if m, ok := ctbcast.ParseMsg(f.Msg); ok {
			d.CTB, d.K = m.Tag, m.K
			if m.Tag != wire.RingTagSummary { // a summary carries a replica's state
				d.header(m.M)
			}
		}
	case router.ChanRingAck:
		if inst, _, ok := tbcast.ParseAck(payload); ok {
			d.ring(n, inst)
		}
	case router.ChanDirect, router.ChanRPC:
		d.header(payload)
	}
	return d
}

func (d *Desc) ring(n int, inst msgring.Instance) {
	d.Ring, d.Inst = true, inst
	d.Owner, d.Kind = consensus.RingOf(n, inst)
}

func (d *Desc) header(m []byte) {
	if h, ok := consensus.ReadHeader(m); ok {
		d.Header = h
	}
}

// String renders the description on one line, for logs and schedules.
func (d Desc) String() string {
	s := fmt.Sprintf("chan %d", d.Chan)
	if d.Ring {
		s += fmt.Sprintf(" ring %d (replica %d kind %d)", d.Inst, d.Owner, d.Kind)
	}
	if d.CTB != 0 {
		s += fmt.Sprintf(" ctb %d k %d", d.CTB, d.K)
	}
	if d.Tag != 0 {
		s += fmt.Sprintf(" tag %d view %d slot %d client %d num %d", d.Tag, d.View, d.Slot, d.Client, d.Num)
	}
	return s
}
