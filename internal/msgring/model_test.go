package msgring

// The sender checked against its predecessor. refSender is the earlier
// implementation kept as the reference model: one ring per receiver, an
// in-flight bit per slot that an engine event scheduled at every WRITE
// clears, and a drain of the staging queue at every such event. The Sender
// keeps a completion time per slot instead and schedules a drain only while
// something is staged; driven by the same schedule the two must post the
// same frames at the same instants, charge the same CPU time and stage and
// evict the same messages.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

type refSendRing struct {
	to       ids.ID
	inFlight []bool
	staged   []uint64
}

type refSender struct {
	rt     *router.Router
	proc   *sim.Proc
	inst   Instance
	slots  int
	next   uint64
	mirror [][]byte
	rings  []*refSendRing
}

func newRefSender(rt *router.Router, proc *sim.Proc, to []ids.ID, inst Instance, slots int) *refSender {
	s := &refSender{rt: rt, proc: proc, inst: inst, slots: slots, mirror: make([][]byte, slots)}
	for _, id := range to {
		s.rings = append(s.rings, &refSendRing{to: id, inFlight: make([]bool, slots)})
	}
	return s
}

func (s *refSender) send(msg []byte) {
	idx := s.next
	s.next++
	slot := idx % uint64(s.slots)
	s.mirror[slot] = append(s.mirror[slot][:0], msg...)
	for _, r := range s.rings {
		s.post(r, idx)
	}
}

func (s *refSender) retransmit(recv int, idx uint64) bool {
	if idx >= s.next || s.next-idx > uint64(s.slots) {
		return false
	}
	s.post(s.rings[recv], idx)
	return true
}

func (s *refSender) post(r *refSendRing, idx uint64) {
	if r.inFlight[idx%uint64(s.slots)] {
		if len(r.staged) >= s.slots {
			r.staged = r.staged[1:]
		}
		r.staged = append(r.staged, idx)
		return
	}
	s.transmit(r, idx)
}

func (s *refSender) transmit(r *refSendRing, idx uint64) {
	slot := int(idx % uint64(s.slots))
	data := s.mirror[slot]
	s.proc.Charge(latmodel.CopyCost(len(data)))
	chk := xcrypto.Checksum(s.proc, data)
	w := wire.NewWriter(32 + len(data))
	w.U32(uint32(s.inst))
	w.U32(uint32(slot))
	w.U64(idx/uint64(s.slots) + 1)
	w.U64(chk)
	w.Bytes(data)
	r.inFlight[slot] = true
	s.rt.Send(r.to, router.ChanRing, w.Finish())
	s.proc.After(2*latmodel.WireBase+latmodel.PerByte(len(data)), func() {
		r.inFlight[slot] = false
		for len(r.staged) > 0 {
			head := r.staged[0]
			if r.inFlight[head%uint64(s.slots)] {
				return
			}
			r.staged = r.staged[1:]
			if s.next-head <= uint64(s.slots) {
				s.transmit(r, head)
			}
		}
	})
}

// wireTap is the sender host of one side of the comparison: an endpoint
// that records, per destination, every frame with the instant it was posted.
type wireTap struct {
	eng    *sim.Engine
	proc   *sim.Proc
	posted map[ids.ID][]string
}

func newWireTap() *wireTap {
	eng := sim.NewEngine(1)
	return &wireTap{eng: eng, proc: sim.NewProc(eng, "s"), posted: make(map[ids.ID][]string)}
}

func (w *wireTap) ID() ids.ID                   { return 0 }
func (w *wireTap) Proc() *sim.Proc              { return w.proc }
func (w *wireTap) SetHandler(transport.Handler) {}
func (w *wireTap) SetIntake(func([]byte) bool)  {}
func (w *wireTap) Send(to ids.ID, payload []byte) {
	w.posted[to] = append(w.posted[to], fmt.Sprintf("@%d %x", w.eng.Now(), payload))
}

// TestSenderMatchesReferenceModel drives both implementations with one
// seeded schedule of sends, per-receiver retransmissions and clock advances
// over small rings, where staging and eviction are the common case, and
// requires the same frames posted to each receiver at the same instants, the
// same CPU horizon and the same staging queues (so the same evictions) after
// every step.
//
// WRITEs that complete at one instant are where the designs differ: the
// reference runs one event each, the sender one drain for all of them. Per
// receiver that posts the same frames in the same order; across receivers the
// order within the instant may differ, which is why frames are compared per
// receiver by posting instant and not by arrival time. A completion at the
// very instant of a driver operation counts as complete on both sides: the
// driver acts between engine events, after everything due has run.
func TestSenderMatchesReferenceModel(t *testing.T) {
	const slotCap = 2048 // PerByte(slotCap) is a third of the base completion time: later WRITEs do overtake earlier ones
	fullQueues := 0      // observations of a staging queue at capacity: the next stage evicts
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots, nRecv := 2+rng.Intn(7), 1+rng.Intn(3)
		to := []ids.ID{1, 2, 3}[:nRecv]
		a, b := newWireTap(), newWireTap()
		ref := newRefSender(router.New(a), a.proc, to, 3, slots)
		snd := NewFanOut(router.New(b), b.proc, to, 3, slots, slotCap)
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				msg := make([]byte, 1+rng.Intn(slotCap)>>uint(rng.Intn(8)))
				rng.Read(msg)
				ref.send(msg)
				snd.Send(msg)
			case op < 7 && snd.Next() > 0:
				recv, idx := rng.Intn(nRecv), uint64(rng.Int63n(int64(snd.Next())))
				if ref.retransmit(recv, idx) != snd.Retransmit(recv, idx) {
					t.Fatalf("seed %d step %d: retransmit(%d, %d) availability differs", seed, step, recv, idx)
				}
			default:
				d := sim.Duration(rng.Int63n(int64(3 * sim.Microsecond)))
				a.eng.RunFor(d)
				b.eng.RunFor(d)
			}
			if a.proc.BusyUntil() != b.proc.BusyUntil() {
				t.Fatalf("seed %d step %d: CPU horizon %d, reference %d", seed, step, b.proc.BusyUntil(), a.proc.BusyUntil())
			}
			for i, r := range ref.rings {
				if !slices.Equal(r.staged, snd.to[i].staged) {
					t.Fatalf("seed %d step %d receiver %d: staged %v, reference %v", seed, step, i, snd.to[i].staged, r.staged)
				}
				if len(r.staged) == slots {
					fullQueues++
				}
			}
		}
		a.eng.Run()
		b.eng.Run()
		for _, id := range to {
			if !slices.Equal(a.posted[id], b.posted[id]) {
				t.Fatalf("seed %d receiver %v: posted frames differ:\n got %v\nwant %v", seed, id, b.posted[id], a.posted[id])
			}
		}
		if b.eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events left pending after the last drain", seed, b.eng.Pending())
		}
	}
	if fullQueues == 0 {
		t.Fatal("the schedules never filled a staging queue")
	}
}

// TestIdleRingCostsNoEventPerWrite: a WRITE into a free slot schedules
// nothing at the sender, so N sends on an un-wrapped ring execute exactly
// the N deliveries and leave the engine empty.
func TestIdleRingCostsNoEventPerWrite(t *testing.T) {
	p := newPair(t, 16, 64)
	const n = 16
	for i := 0; i < n; i++ {
		p.send.Send([]byte{byte(i)})
	}
	p.eng.Run()
	if len(p.got) != n {
		t.Fatalf("delivered %d/%d", len(p.got), n)
	}
	if got := p.eng.Executed(); got != n {
		t.Fatalf("%d sends executed %d events, want the %d deliveries only", n, got, n)
	}
	if p.eng.Pending() != 0 {
		t.Fatalf("%d events left pending on an idle ring", p.eng.Pending())
	}
}
