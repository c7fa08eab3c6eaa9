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
// reference the counted scan is held to: store the frame unless the slot
// already holds something at least as new, then repeatedly deliver the
// oldest stored index >= nextIdx by walking every slot.
type refRing struct {
	slots   int
	stored  []storedSlot
	nextIdx uint64
	got     []uint64
}

func (r *refRing) accept(slot int, inc uint64) {
	idx := (inc-1)*uint64(r.slots) + uint64(slot)
	if cur := &r.stored[slot]; !cur.has || cur.idx < idx {
		cur.has, cur.idx = true, idx
	} else {
		return
	}
	r.scan()
}

func (r *refRing) scan() {
	for {
		best := -1
		for i, s := range r.stored {
			if s.has && s.idx >= r.nextIdx && (best == -1 || s.idx < r.stored[best].idx) {
				best = i
			}
		}
		if best == -1 {
			return
		}
		r.nextIdx = r.stored[best].idx + 1
		r.got = append(r.got, r.stored[best].idx)
	}
}

func (r *refRing) reset() {
	r.nextIdx = 0
	r.stored = make([]storedSlot, r.slots)
}

// scanRig builds a live receiver whose deliveries are logged.
func scanRig(slots int) (*Receiver, *[]uint64) {
	eng := sim.NewEngine(1)
	rrt := router.New(simnet.New(eng, simnet.RDMAOptions()).AddNode(1, "r"))
	got := new([]uint64)
	recv := NewReceiver(NewHub(rrt, rrt.Node().Proc()), 0, 1, slots, 16,
		func(idx uint64, _ []byte) { *got = append(*got, idx) })
	return recv, got
}

// TestScanMatchesReference feeds the same frames — in order, out of order,
// stale rewrites, incarnations that overwrite undelivered and delivered
// slots, whole laps skipped, peer resets — to the receiver and to the
// reference rule, and requires the same delivery sequence and read pointer
// after every frame.
func TestScanMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := 2 + rng.Intn(7)
		recv, got := scanRig(slots)
		ref := &refRing{slots: slots, stored: make([]storedSlot, slots)}
		head := uint64(0) // a sender's notion of "next index"
		for step := 0; step < 400; step++ {
			var idx uint64
			switch rng.Intn(10) {
			case 0: // peer cold-restarted
				recv.Reset()
				ref.reset()
				head = 0
				continue
			case 1, 2: // retransmission of something older
				idx = uint64(rng.Int63n(int64(head + 1)))
			case 3: // frames lost: jump ahead, possibly by laps
				head += uint64(rng.Intn(3 * slots))
				idx = head
				head++
			default: // in order
				idx = head
				head++
			}
			slot, inc := int(idx%uint64(slots)), idx/uint64(slots)+1
			data := []byte{byte(idx)}
			recv.accept(slot, inc, xcrypto.ChecksumNoCharge(data), data)
			ref.accept(slot, inc)
			if !reflect.DeepEqual(*got, ref.got) || recv.nextIdx != ref.nextIdx {
				t.Fatalf("seed %d step %d (idx %d): delivered %v next %d, reference %v next %d",
					seed, step, idx, *got, recv.nextIdx, ref.got, ref.nextIdx)
			}
			if recv.undelivered != 0 {
				t.Fatalf("seed %d step %d: %d messages left undelivered after a scan", seed, step, recv.undelivered)
			}
		}
	}
}

// TestScanDeliversAcrossGaps: with several undelivered messages stored and
// holes between them (the state a scan meets when deliveries were held
// back), the order is still oldest first, skipping what is missing.
func TestScanDeliversAcrossGaps(t *testing.T) {
	recv, got := scanRig(8)
	recv.nextIdx = 3
	for _, idx := range []uint64{9, 4, 7, 2} { // 2 is already behind the pointer
		recv.stored[idx%8] = storedSlot{has: true, idx: idx}
	}
	recv.undelivered = 3
	recv.scan()
	if want := []uint64{4, 7, 9}; !reflect.DeepEqual(*got, want) || recv.nextIdx != 10 || recv.undelivered != 0 {
		t.Fatalf("delivered %v next %d undelivered %d, want %v next 10 undelivered 0", *got, recv.nextIdx, recv.undelivered, want)
	}
}
