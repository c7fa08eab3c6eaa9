package msgring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Property: under ANY interleaving of sends and retransmissions, the
// receiver's delivery sequence is strictly monotonic in absolute index
// (FIFO, no duplicates), every delivered payload matches what was sent for
// that index, and once the sender has retransmitted what its mirror holds
// (staging overflow loses frames, and the receiver waits for a lost frame the
// mirror can still supply) the final message has arrived.
func TestQuickRingDeliveryInvariants(t *testing.T) {
	prop := func(seed int64, slots8 uint8, burst8 uint8) bool {
		slots := 2 + int(slots8%14) // 2..15
		burst := 1 + int(burst8%40) // 1..40 messages
		eng := sim.NewEngine(seed)
		net := simnet.New(eng, simnet.RDMAOptions())
		srt := router.New(net.AddNode(0, "s"))
		rrt := router.New(net.AddNode(1, "r"))
		hub := NewHub(rrt, rrt.Node().Proc())

		var idxs []uint64
		var bodies [][]byte
		NewReceiver(hub, 0, 1, slots, 16, func(idx uint64, msg []byte) {
			idxs = append(idxs, idx)
			cp := make([]byte, len(msg))
			copy(cp, msg)
			bodies = append(bodies, cp)
		})
		send := NewSender(srt, srt.Node().Proc(), 1, 1, slots, 16)

		rng := rand.New(rand.NewSource(seed))
		sent := make(map[uint64][]byte)
		next := uint64(0)
		for i := 0; i < burst; i++ {
			// Random mix of fresh sends and retransmissions, with random
			// settling time in between.
			if rng.Intn(4) == 0 && next > 0 {
				send.Retransmit(0, uint64(rng.Int63n(int64(next))))
			} else {
				payload := []byte{byte(next), byte(next >> 8), byte(rng.Intn(256))}
				sent[send.Send(payload)] = payload
				next++
			}
			if rng.Intn(3) == 0 {
				eng.RunFor(sim.Duration(rng.Int63n(int64(5 * sim.Microsecond))))
			}
		}
		eng.RunFor(sim.Millisecond)
		for idx := next - min(next, uint64(slots)); idx < next; idx++ {
			send.Retransmit(0, idx)
		}
		eng.RunFor(sim.Millisecond)

		// Monotonic, no duplicates, correct bodies.
		for i, idx := range idxs {
			if i > 0 && idx <= idxs[i-1] {
				return false
			}
			want := sent[idx]
			if want == nil || string(bodies[i]) != string(want) {
				return false
			}
		}
		// The newest message is never overwritten, so it must arrive.
		if next > 0 {
			if len(idxs) == 0 || idxs[len(idxs)-1] != next-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
