package msgring

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/xcrypto"
)

// refRing is the receiver's delivery rule written the plain way, the
// reference the ring-slot scan is held to. It keeps every undelivered frame
// by index, not by slot: a frame is refused when it lies behind the read
// pointer or its slot already holds something at least as new; otherwise the
// read pointer steps over what has left the sender's mirror (everything more
// than `slots` below the highest index seen), one index at a time, delivers
// while the next index is there and stops at the first hole the mirror can
// still fill. A frame that was refused or delivered nothing counts as idle.
type refRing struct {
	slots         int
	inSlot        map[int]uint64  // newest index each slot has held
	have          map[uint64]bool // received, not yet delivered
	nextIdx, high uint64
	got           []uint64
	idle          int
}

func newRefRing(slots int) *refRing {
	return &refRing{slots: slots, inSlot: map[int]uint64{}, have: map[uint64]bool{}}
}

// reset forgets the ring's contents, as a peer reset does; the delivery log
// and idle count carry on.
func (r *refRing) reset() {
	*r = refRing{slots: r.slots, inSlot: map[int]uint64{}, have: map[uint64]bool{}, got: r.got, idle: r.idle}
}

func (r *refRing) accept(idx uint64) {
	delivered := len(r.got)
	slot := int(idx % uint64(r.slots))
	if held, ok := r.inSlot[slot]; idx >= r.nextIdx && !(ok && held >= idx) {
		r.inSlot[slot], r.have[idx] = idx, true
		r.high = max(r.high, idx+1)
		r.deliverReady()
	}
	if len(r.got) == delivered {
		r.idle++
	}
}

func (r *refRing) deliverReady() {
	for {
		for r.nextIdx+uint64(r.slots) < r.high {
			delete(r.have, r.nextIdx)
			r.nextIdx++
		}
		if !r.have[r.nextIdx] {
			return
		}
		delete(r.have, r.nextIdx)
		r.got = append(r.got, r.nextIdx)
		r.nextIdx++
	}
}

// scanRig builds a live receiver whose deliveries and idle notifications are
// logged.
func scanRig(slots int) (recv *Receiver, got *[]uint64, idle *int) {
	eng := sim.NewEngine(1)
	rrt := router.New(simnet.New(eng, simnet.RDMAOptions()).AddNode(1, "r"))
	got, idle = new([]uint64), new(int)
	recv = NewReceiver(NewHub(rrt, rrt.Node().Proc()), 0, 1, slots, 16,
		func(idx uint64, _ []byte) { *got = append(*got, idx) })
	recv.OnIdle(func() { *idle++ })
	return recv, got, idle
}

func feed(recv *Receiver, idx uint64) {
	data := []byte{byte(idx)}
	recv.accept(int(idx%uint64(recv.slots)), idx/uint64(recv.slots)+1, xcrypto.ChecksumNoCharge(data), data)
}

// TestScanMatchesReference feeds the same frames — in order, out of order,
// retransmissions of delivered, skipped and still-missing indices,
// incarnations that overwrite undelivered and delivered slots, whole laps
// skipped, peer resets — to the receiver and to the reference rule, and
// requires the same delivery sequence, read pointer and idle count after
// every frame: a missing index is skipped only once it has left the sender's
// mirror.
func TestScanMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := 2 + rng.Intn(7)
		recv, got, idle := scanRig(slots)
		ref := newRefRing(slots)
		head := uint64(0) // a sender's notion of "next index"
		for step := 0; step < 400; step++ {
			var idx uint64
			switch rng.Intn(10) {
			case 0: // peer cold-restarted
				recv.Reset()
				ref.reset()
				head = 0
				continue
			case 1, 2, 3: // retransmission of something older
				idx = uint64(rng.Int63n(int64(head + 1)))
			case 4: // frames lost: jump ahead, possibly by laps
				head += uint64(rng.Intn(3 * slots))
				idx = head
				head++
			case 5: // one frame lost
				head++
				idx = head
				head++
			default: // in order
				idx = head
				head++
			}
			feed(recv, idx)
			ref.accept(idx)
			if !reflect.DeepEqual(*got, ref.got) || recv.nextIdx != ref.nextIdx || *idle != ref.idle {
				t.Fatalf("seed %d step %d (idx %d): delivered %v next %d idle %d, reference %v next %d idle %d",
					seed, step, idx, *got, recv.nextIdx, *idle, ref.got, ref.nextIdx, ref.idle)
			}
		}
	}
}

// TestScanDeliversAcrossGaps: with frames stored beyond holes, the
// scan stops at the first hole retransmission can still fill, delivers across
// it the moment it is filled, and steps over a hole only when a newer frame
// proves the index has left the sender's mirror.
func TestScanDeliversAcrossGaps(t *testing.T) {
	recv, got, _ := scanRig(8)
	for _, step := range []struct {
		idx  uint64
		want []uint64 // delivered by this frame
		next uint64
	}{
		{0, []uint64{0}, 1}, {1, []uint64{1}, 2}, {2, []uint64{2}, 3},
		{4, nil, 3}, {7, nil, 3}, {9, nil, 3}, // 3, 5, 6, 8 lost; the mirror still holds 2..9
		{3, []uint64{3, 4}, 5}, // retransmitted: the run behind it goes with it
		{13, nil, 6},           // the mirror now starts at 6: 5 is gone for good, 6 is not
		{6, []uint64{6, 7}, 8},
		{8, []uint64{8, 9}, 10},
		{17, nil, 10}, // overwrites slot 1 (9, delivered); the mirror starts at 10
		{11, nil, 10}, {12, nil, 10},
		{10, []uint64{10, 11, 12, 13}, 14},
	} {
		before := len(*got)
		feed(recv, step.idx)
		if d := (*got)[before:]; !reflect.DeepEqual(append([]uint64(nil), d...), append([]uint64(nil), step.want...)) || recv.nextIdx != step.next {
			t.Fatalf("frame %d: delivered %v next %d, want %v next %d", step.idx, d, recv.nextIdx, step.want, step.next)
		}
	}
}
