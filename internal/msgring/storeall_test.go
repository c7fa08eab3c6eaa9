package msgring

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xcrypto"
)

// storeAllReceiver is the Receiver as it was when every frame went through
// the reorder slots, made in full at construction: the reference the
// deliver-the-next-frame-directly Receiver is held to. Checksum and
// virtual-time charges come before the index is computed and are the same in
// both, so they are left out.
type storeAllReceiver struct {
	slots   int
	deliver func(idx uint64, msg []byte)
	idle    func()
	stored  []storedSlot
	nextIdx uint64
	high    uint64
}

func newStoreAllReceiver(slots int, deliver func(uint64, []byte), idle func()) *storeAllReceiver {
	return &storeAllReceiver{slots: slots, deliver: deliver, idle: idle, stored: make([]storedSlot, slots)}
}

func (r *storeAllReceiver) Reset() {
	r.nextIdx, r.high = 0, 0
	for i := range r.stored {
		r.stored[i] = storedSlot{}
	}
}

func (r *storeAllReceiver) accept(slot int, inc uint64, data []byte) {
	idx := (inc-1)*uint64(r.slots) + uint64(slot)
	cur := &r.stored[slot]
	news := idx >= r.nextIdx && !(cur.has && cur.idx >= idx)
	if news {
		cur.has, cur.idx, cur.data = true, idx, data
		r.high = max(r.high, idx+1)
	}
	if !(news && r.scan()) && r.idle != nil {
		r.idle()
	}
}

func (r *storeAllReceiver) scan() (delivered bool) {
	for {
		if slots := uint64(r.slots); r.high > slots {
			r.nextIdx = max(r.nextIdx, r.high-slots)
		}
		s := &r.stored[r.nextIdx%uint64(r.slots)]
		if !s.has || s.idx != r.nextIdx {
			return delivered
		}
		idx, data := s.idx, s.data
		s.data = nil
		r.nextIdx = idx + 1
		r.deliver(idx, data)
		delivered = true
	}
}

// reset is a step of a stream that resets both receivers, as a peer's cold
// restart does.
const reset = ^uint64(0)

// stream returns a seeded sequence of frame indices of the given kind for a
// ring of slots slots: each kind is one way a link departs from FIFO.
func stream(kind string, rng *rand.Rand, slots int) []uint64 {
	var out []uint64
	const n = 300
	switch kind {
	case "in order":
		for i := uint64(0); i < n; i++ {
			out = append(out, i)
		}
	case "duplicated":
		for i := uint64(0); i < n; i++ {
			out = append(out, i)
			for rng.Intn(3) == 0 {
				out = append(out, i-uint64(rng.Intn(int(min(i, 2*uint64(slots)))+1)))
			}
		}
	case "reordered":
		for i := uint64(0); i < n; i += 4 {
			w := []uint64{i, i + 1, i + 2, i + 3}
			rng.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
			out = append(out, w...)
		}
	case "dropped, retransmitted":
		var lost []uint64
		for i := uint64(0); i < n; i++ {
			if rng.Intn(4) == 0 {
				lost = append(lost, i)
			} else {
				out = append(out, i)
			}
			if len(lost) > 0 && rng.Intn(3) == 0 {
				out = append(out, lost...)
				lost = lost[:0]
			}
		}
		out = append(out, lost...)
	case "aliased past slots":
		for i := uint64(0); i < n; i++ {
			if rng.Intn(8) == 0 {
				i += uint64(slots + rng.Intn(2*slots))
			}
			out = append(out, i)
			if rng.Intn(5) == 0 {
				out = append(out, i-uint64(rng.Intn(int(min(i, 3*uint64(slots)))+1)))
			}
		}
	case "reset mid-stream":
		head := uint64(0)
		for k := 0; k < n; k++ {
			switch rng.Intn(12) {
			case 0:
				out = append(out, reset)
				head = 0
			case 1:
				head++ // one frame lost
				fallthrough
			default:
				out = append(out, head)
				head++
			}
		}
	}
	return out
}

// TestReceiverMatchesStoreAll feeds the Receiver and the store-everything
// reference the same seeded streams — in order, duplicated, reordered,
// dropped and then retransmitted, aliased past the slot count, reset
// mid-stream — and requires the same (index, bytes) deliveries and the same
// idle calls, event by event. A fault-free in-order stream never makes the
// reorder slots.
func TestReceiverMatchesStoreAll(t *testing.T) {
	kinds := []string{"in order", "duplicated", "reordered", "dropped, retransmitted", "aliased past slots", "reset mid-stream"}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			slots := 1 + rng.Intn(8)
			recv, _, _ := scanRig(slots)
			var got, want []string
			recv.deliver = func(idx uint64, msg []byte) { got = append(got, fmt.Sprintf("%d:%x", idx, msg)) }
			recv.OnIdle(func() { got = append(got, "idle") })
			ref := newStoreAllReceiver(slots,
				func(idx uint64, msg []byte) { want = append(want, fmt.Sprintf("%d:%x", idx, msg)) },
				func() { want = append(want, "idle") })
			for step, idx := range stream(kind, rng, slots) {
				if idx == reset {
					recv.Reset()
					ref.Reset()
					continue
				}
				data := binary.LittleEndian.AppendUint64(nil, idx)
				slot, inc := int(idx%uint64(slots)), idx/uint64(slots)+1
				recv.accept(slot, inc, xcrypto.ChecksumNoCharge(data), data)
				ref.accept(slot, inc, data)
				if !slices.Equal(got, want) || recv.nextIdx != ref.nextIdx {
					t.Fatalf("%s, seed %d, step %d (frame %d): events %v next %d, store-all %v next %d",
						kind, seed, step, idx, got, recv.nextIdx, want, ref.nextIdx)
				}
			}
			if kind == "in order" && recv.stored != nil {
				t.Fatalf("seed %d: an in-order stream made the reorder slots", seed)
			}
		}
	}
}
