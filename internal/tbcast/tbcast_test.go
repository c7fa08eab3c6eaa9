package tbcast

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// net3 builds a 3-host network (host 0 broadcasts, hosts 1 and 2 listen)
// with the full stack: router, ring hub, ack hub.
type net3 struct {
	eng       *sim.Engine
	net       *simnet.Network
	rts       []*router.Router
	hubs      []*msgring.Hub
	ackHubs   []*AckHub
	delivered [3][]string
	indices   [3][]uint64
	seen      uint64 // fabric messages already counted by traffic
}

func newNet3(t *testing.T) *net3 {
	t.Helper()
	return newNet3Seeded(1)
}

func newNet3Seeded(seed int64) *net3 {
	n := &net3{eng: sim.NewEngine(seed)}
	n.net = simnet.New(n.eng, simnet.RDMAOptions())
	for i := 0; i < 3; i++ {
		rt := router.New(n.net.AddNode(ids.ID(i), fmt.Sprintf("h%d", i)))
		n.rts = append(n.rts, rt)
		n.hubs = append(n.hubs, msgring.NewHub(rt, rt.Node().Proc()))
		n.ackHubs = append(n.ackHubs, NewAckHub(rt))
	}
	return n
}

func (n *net3) broadcaster(host int, inst Instance, slots, cap int) *Broadcaster {
	var receivers []ids.ID
	for i := 0; i < 3; i++ {
		if i != host {
			receivers = append(receivers, ids.ID(i))
		}
	}
	host0 := host
	b := NewBroadcaster(Config{
		RT:        n.rts[host],
		Proc:      n.rts[host].Node().Proc(),
		AckHub:    n.ackHubs[host],
		Instance:  inst,
		Receivers: receivers,
		Slots:     slots,
		SlotCap:   cap,
		SelfDeliver: func(idx uint64, msg []byte) {
			n.delivered[host0] = append(n.delivered[host0], string(msg))
			n.indices[host0] = append(n.indices[host0], idx)
		},
	})
	for i := 0; i < 3; i++ {
		if i == host {
			continue
		}
		i := i
		Listen(n.hubs[i], n.rts[i], n.rts[i].Node().Proc(), ids.ID(host), inst, slots, cap,
			func(idx uint64, msg []byte) {
				n.delivered[i] = append(n.delivered[i], string(msg))
				n.indices[i] = append(n.indices[i], idx)
			})
	}
	return b
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 8, 64)
	b.Broadcast([]byte("hello"))
	n.eng.Run()
	for i := 0; i < 3; i++ {
		if len(n.delivered[i]) != 1 || n.delivered[i][0] != "hello" {
			t.Fatalf("host %d delivered %v", i, n.delivered[i])
		}
	}
}

func TestFIFOOrderAtAllReceivers(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 16, 64)
	for i := 0; i < 8; i++ {
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	n.eng.Run()
	for host := 0; host < 3; host++ {
		if len(n.delivered[host]) != 8 {
			t.Fatalf("host %d delivered %d/8", host, len(n.delivered[host]))
		}
		for i, m := range n.delivered[host] {
			if m != fmt.Sprintf("m%d", i) {
				t.Fatalf("host %d out of order: %v", host, n.delivered[host])
			}
		}
	}
}

func TestTailValidityLastMessagesDelivered(t *testing.T) {
	// Burst 4x the ring: receivers may miss old messages but must deliver
	// the last `slots` ones in order (tail-validity with 2t = slots).
	n := newNet3(t)
	slots := 4
	b := n.broadcaster(0, 1, slots, 64)
	const total = 16
	for i := 0; i < total; i++ {
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	n.eng.RunFor(2 * sim.Millisecond)
	for host := 1; host < 3; host++ {
		got := n.delivered[host]
		if len(got) == 0 || got[len(got)-1] != fmt.Sprintf("m%d", total-1) {
			t.Fatalf("host %d missing tail: %v", host, got)
		}
	}
}

func TestRetransmissionHealsPartition(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 8, 64)
	n.net.Partition(0, 2)
	b.Broadcast([]byte("during-partition"))
	n.eng.RunFor(100 * sim.Microsecond)
	if len(n.delivered[2]) != 0 {
		t.Fatal("partitioned host received message")
	}
	n.net.Heal(0, 2)
	n.eng.RunFor(2 * sim.Millisecond)
	if len(n.delivered[2]) != 1 || n.delivered[2][0] != "during-partition" {
		t.Fatalf("retransmission did not heal: %v", n.delivered[2])
	}
}

func TestRetransmitLoopDisarmsWhenQuiescent(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 8, 64)
	b.Broadcast([]byte("x"))
	// Run must terminate: after all acks arrive the loop disarms.
	n.eng.Run()
	if n.eng.Pending() != 0 {
		t.Fatalf("event queue not drained: %d pending", n.eng.Pending())
	}
}

func TestNoDuplicateDeliveries(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 8, 64)
	// Partition one host so retransmissions happen, then heal: deliveries
	// must still be unique.
	n.net.Partition(0, 1)
	for i := 0; i < 4; i++ {
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	n.eng.RunFor(300 * sim.Microsecond)
	n.net.Heal(0, 1)
	n.eng.RunFor(3 * sim.Millisecond)
	seen := map[uint64]bool{}
	for _, idx := range n.indices[1] {
		if seen[idx] {
			t.Fatalf("duplicate delivery at host 1: %v", n.indices[1])
		}
		seen[idx] = true
	}
	if len(n.delivered[1]) != 4 {
		t.Fatalf("host 1 delivered %d/4 after heal", len(n.delivered[1]))
	}
}

func TestTwoBroadcastersIndependentChannels(t *testing.T) {
	n := newNet3(t)
	b0 := n.broadcaster(0, 1, 8, 64)
	b1 := n.broadcaster(1, 2, 8, 64)
	b0.Broadcast([]byte("from0"))
	b1.Broadcast([]byte("from1"))
	n.eng.Run()
	// Host 2 hears both.
	if len(n.delivered[2]) != 2 {
		t.Fatalf("host 2 delivered %v", n.delivered[2])
	}
}

func TestStopCancelsRetransmission(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 8, 64)
	n.net.Partition(0, 1) // keeps host 1 unacked forever
	b.Broadcast([]byte("x"))
	n.eng.RunFor(500 * sim.Microsecond)
	b.Stop()
	n.eng.Run() // must terminate
	if n.eng.Pending() != 0 {
		t.Fatalf("pending events after Stop: %d", n.eng.Pending())
	}
}

func TestDuplicateInstancePanics(t *testing.T) {
	n := newNet3(t)
	n.broadcaster(0, 1, 8, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate instance did not panic")
		}
	}()
	NewBroadcaster(Config{
		RT:       n.rts[0],
		Proc:     n.rts[0].Node().Proc(),
		AckHub:   n.ackHubs[0],
		Instance: 1,
		Slots:    8,
		SlotCap:  64,
	})
}

func TestAllocatedBytesAccounted(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 8, 64)
	if b.AllocatedBytes() <= 0 {
		t.Fatal("broadcaster memory accounting missing")
	}
}

// traffic counts what the fabric carried since the last call.
func (n *net3) traffic() uint64 {
	d := n.net.MsgsSent - n.seen
	n.seen = n.net.MsgsSent
	return d
}

func (n *net3) wantInOrder(t *testing.T, host int, from, to int) {
	t.Helper()
	var want []string
	for i := from; i < to; i++ {
		want = append(want, fmt.Sprintf("m%d", i))
	}
	if got := n.delivered[host]; !slices.Equal(got, want) {
		t.Fatalf("host %d delivered %v, want m%d..m%d in order, once each", host, got, from, to-1)
	}
}

// TestDroppedFrameIsRepairedInOrder: frame k of a burst is lost on the wire
// to one receiver. The receiver holds back what follows, the broadcaster
// re-pushes k once it is older than the retransmission age, and everything is
// delivered in order one round later. (Skipping k the moment k+1 arrived, and
// acknowledging past it, lost k for ever.)
func TestDroppedFrameIsRepairedInOrder(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 16, 64)
	for i := 0; i < 8; i++ {
		if i == 3 {
			n.net.Partition(0, 1)
		}
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
		n.net.HealAll()
	}
	n.eng.RunFor(RetransmitInterval - sim.Microsecond)
	n.wantInOrder(t, 1, 0, 3)
	n.wantInOrder(t, 2, 0, 8)
	n.eng.RunFor(20 * sim.Microsecond)
	n.wantInOrder(t, 1, 0, 8)
	n.eng.Run()
	if n.eng.Pending() != 0 {
		t.Fatalf("event queue not drained: %d pending", n.eng.Pending())
	}
}

// TestDroppedLastAckHeals: the ack of the last frame is lost, so the
// broadcaster re-pushes a frame the receiver already read. That frame is not
// news, the receiver answers it with its ack at once, and the channel goes
// quiet one round after the loss. (Dropped as a stale rewrite before the
// listener saw it, the frame was retransmitted for ever.)
func TestDroppedLastAckHeals(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 8, 64)
	b.Broadcast([]byte("m0"))
	n.eng.RunFor(10 * sim.Microsecond) // delivered everywhere, acks not yet sent
	n.net.Partition(0, 2)
	n.eng.RunFor(ackDelay + 10*sim.Microsecond) // host 2's ack is lost
	n.net.Heal(0, 2)
	n.traffic()
	n.eng.RunFor(RetransmitInterval)
	if got := n.traffic(); got != 2 {
		t.Fatalf("%d messages after the lost ack, want the re-pushed frame and its ack", got)
	}
	n.wantInOrder(t, 2, 0, 1)
	n.eng.RunFor(100 * RetransmitInterval)
	if got, pending := n.traffic(), n.eng.Pending(); got != 0 || pending != 0 {
		t.Fatalf("channel not quiet after the ack was repeated: %d more messages, %d events pending", got, pending)
	}
}

// TestPartitionedReceiverCostsProbesNotTheTail: towards a receiver cut off
// for 50ms the broadcaster re-pushes its unacknowledged tail once and then
// probes with one frame at doubling intervals, so the partition costs
// O(tail + log) frames (re-pushing the tail every interval, it cost tail x
// 250). The first probe through after the heal draws an ack and the ack
// releases the rest.
func TestPartitionedReceiverCostsProbesNotTheTail(t *testing.T) {
	const tail = 8
	n := newNet3(t)
	b := n.broadcaster(0, 1, 2*tail, 64)
	n.net.Partition(0, 1)
	for i := 0; i < tail; i++ {
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	n.eng.RunFor(RetransmitInterval / 2) // host 2 has everything and has said so
	n.traffic()
	n.eng.RunFor(50 * sim.Millisecond)
	// One round of the whole tail, then probes 0.4, 0.8, ... 12.8, 12.8ms apart.
	if got, limit := n.traffic(), uint64(tail+10); got > limit {
		t.Fatalf("%d frames towards a partitioned receiver in 50ms, want at most %d", got, limit)
	}
	n.net.Heal(0, 1)
	n.eng.RunFor(RetransmitInterval << maxBackoff)
	n.wantInOrder(t, 1, 0, tail)
	n.eng.Run()
	if n.eng.Pending() != 0 {
		t.Fatalf("event queue not drained: %d pending", n.eng.Pending())
	}
}

// TestBurstDrawsAtMostTwoAcksPerReceiver: acknowledgements are cumulative
// and lazy, one when half the ring is unacknowledged and one when the ack
// delay runs out, whatever the burst's length.
func TestBurstDrawsAtMostTwoAcksPerReceiver(t *testing.T) {
	for _, c := range []struct{ slots, burst, acks int }{{128, 40, 1}, {64, 40, 2}, {64, 64, 2}} {
		n := newNet3(t)
		b := n.broadcaster(0, 1, c.slots, 64)
		for i := 0; i < c.burst; i++ {
			b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
		}
		n.eng.Run()
		n.wantInOrder(t, 1, 0, c.burst)
		if acks := n.traffic() - 2*uint64(c.burst); acks != 2*uint64(c.acks) {
			t.Errorf("%d broadcasts into %d slots drew %d acks from two receivers, want %d each", c.burst, c.slots, acks, c.acks)
		}
	}
}

// reborn replaces a host with a fresh process and stack, as a cold restart
// does, and returns its new incarnation's index space to zero.
func (n *net3) reborn(host int) {
	n.net.Node(ids.ID(host)).Proc().Crash()
	n.net.RemoveNode(ids.ID(host))
	rt := router.New(n.net.AddNode(ids.ID(host), fmt.Sprintf("h%d'", host)))
	n.rts[host], n.hubs[host], n.ackHubs[host] = rt, msgring.NewHub(rt, rt.Node().Proc()), NewAckHub(rt)
	n.delivered[host], n.indices[host] = nil, nil
}

// TestColdRestartRewindsBothEnds: when the broadcaster is reborn its channel
// restarts at index 0, and a listener that kept its pre-restart ack counter
// would either acknowledge messages the new incarnation never sent or, told
// to ignore those, never acknowledge at all. When a receiver is reborn,
// ResetReceiver re-pushes the retained tail to it whatever the old
// incarnation had acknowledged.
func TestColdRestartRewindsBothEnds(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 8, 64)
	for i := 0; i < 6; i++ {
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	n.eng.Run()

	// The broadcaster restarts: peers rewind their rings (Hub.ResetPeer).
	n.reborn(0)
	for _, host := range []int{1, 2} {
		n.hubs[host].ResetPeer(0)
		n.delivered[host] = nil
	}
	b = NewBroadcaster(Config{RT: n.rts[0], Proc: n.rts[0].Node().Proc(), AckHub: n.ackHubs[0],
		Instance: 1, Receivers: []ids.ID{1, 2}, Slots: 8, SlotCap: 64})
	n.traffic()
	b.Broadcast([]byte("m0"))
	b.Broadcast([]byte("m1"))
	n.eng.Run()
	n.wantInOrder(t, 1, 0, 2)
	n.wantInOrder(t, 2, 0, 2)
	if got := n.traffic(); got != 2*2+2 || n.eng.Pending() != 0 {
		t.Fatalf("%d messages for two broadcasts of the new incarnation (want 4 frames and one ack per receiver), %d events pending", got, n.eng.Pending())
	}
	for i := range b.to {
		if b.to[i].acked != 2 {
			t.Fatalf("receiver %v acknowledged %d of the new incarnation's 2 messages", b.to[i].id, b.to[i].acked)
		}
	}

	// A receiver restarts: its fresh ring gets the retained tail again.
	n.reborn(1)
	Listen(n.hubs[1], n.rts[1], n.rts[1].Node().Proc(), 0, 1, 8, 64, func(idx uint64, msg []byte) {
		n.delivered[1] = append(n.delivered[1], string(msg))
	})
	b.ResetReceiver(1)
	n.eng.Run()
	n.wantInOrder(t, 1, 0, 2)
	if n.eng.Pending() != 0 {
		t.Fatalf("event queue not drained after the receiver rejoined: %d pending", n.eng.Pending())
	}
}

// TestTailBroadcastPropertiesUnderLoss: whatever a lossy, delaying fabric does
// before GST, every receiver's deliveries are what was broadcast (integrity),
// each index at most once (no duplication), in index order (FIFO), and once
// the fabric is synchronous again the last `slots` messages reach every
// receiver (tail validity) and the channel goes quiet. A divergence found in
// a layer above is therefore not Tail Broadcast's.
func TestTailBroadcastPropertiesUnderLoss(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := 2 << rng.Intn(5) // 2..32
		total := 1 + rng.Intn(6*slots)
		gst := sim.Time(rng.Int63n(int64(20 * sim.Millisecond)))

		n := newNet3Seeded(seed)
		n.net.SetGST(gst, sim.Duration(1+rng.Int63n(int64(2*sim.Millisecond))), 0.1+0.6*rng.Float64())
		b := n.broadcaster(0, 1, slots, 64)
		for i := 0; i < total; i++ {
			b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
			if rng.Intn(3) > 0 {
				n.eng.RunFor(sim.Duration(rng.Int63n(1 + 2*int64(gst)/int64(total))))
			}
		}
		n.eng.RunUntil(gst)
		n.eng.RunFor(3 * (RetransmitInterval << maxBackoff))
		if n.eng.Pending() != 0 {
			t.Fatalf("seed %d: channel not quiet after GST: %d events pending", seed, n.eng.Pending())
		}
		for host := 1; host < 3; host++ {
			idxs := n.indices[host]
			for k, idx := range idxs {
				if k > 0 && idx <= idxs[k-1] {
					t.Fatalf("seed %d host %d: index %d delivered after %d", seed, host, idx, idxs[k-1])
				}
				if got, want := n.delivered[host][k], fmt.Sprintf("m%d", idx); got != want {
					t.Fatalf("seed %d host %d: index %d delivered as %q, want %q", seed, host, idx, got, want)
				}
			}
			if tail := min(total, slots); len(idxs) < tail || idxs[len(idxs)-tail] != uint64(total-tail) {
				t.Fatalf("seed %d host %d: the last %d of %d messages did not all arrive (%d slots): delivered %v", seed, host, tail, total, slots, idxs)
			}
		}
	}
}

// TestTimerScaleStretchesEveryInterval: on a host that stretches its timers
// (nettrans' TimerScale) the ack delay, the retransmission age and the
// measured round trip all stretch alike: a lost frame is repaired one scaled
// interval after it was sent, not one unscaled interval (a storm on sockets)
// and not a hundred scaled ones (measured time fed back into scaled timers).
func TestTimerScaleStretchesEveryInterval(t *testing.T) {
	const scale = 100
	n := newNet3(t)
	n.eng.SetTimeScale(scale)
	b := n.broadcaster(0, 1, 16, 64)
	for round := 0; round < 3; round++ { // the later rounds run on a measured round trip
		n.delivered[1] = nil
		for i := 0; i < 4; i++ {
			if i == 2 {
				n.net.Partition(0, 1)
			}
			b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
			n.net.HealAll()
		}
		n.eng.RunFor(scale*RetransmitInterval - sim.Microsecond)
		n.wantInOrder(t, 1, 0, 2)
		n.eng.RunFor(scale * RetransmitInterval / 2)
		n.wantInOrder(t, 1, 0, 4)
		n.eng.Run()
		if n.eng.Pending() != 0 {
			t.Fatalf("round %d: event queue not drained: %d pending", round, n.eng.Pending())
		}
	}
	for i := range b.to {
		if age := b.to[i].age(); age != RetransmitInterval {
			t.Errorf("receiver %v: retransmission age %v with a %v fabric under a %dx timer scale, want the %v floor", b.to[i].id, age, 2*sim.Microsecond, scale, RetransmitInterval)
		}
	}
}

// TestLowerAckRewindsTheBroadcaster: a reborn broadcaster's first frames can
// reach a receiver before the news of the rebirth does. The receiver answers
// them out of its old ring's state — they lie behind its read pointer, so it
// acknowledges "everything up to" where the previous incarnation had got —
// and only then rewinds. The broadcaster now believes acknowledged what the
// receiver has just forgotten. The receiver's next ack is lower than its
// last; cumulative acks over a FIFO link never go down otherwise, so the
// broadcaster takes it at its word and re-pushes. (It used to ignore it as
// "no progress" and the two re-pushed and re-acknowledged for ever.)
func TestLowerAckRewindsTheBroadcaster(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 16, 64)
	for i := 0; i < 6; i++ {
		b.Broadcast([]byte("old"))
	}
	n.eng.Run()

	n.reborn(0)
	b = NewBroadcaster(Config{RT: n.rts[0], Proc: n.rts[0].Node().Proc(), AckHub: n.ackHubs[0],
		Instance: 1, Receivers: []ids.ID{1, 2}, Slots: 16, SlotCap: 64})
	for i := 0; i < 8; i++ {
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	n.eng.Run() // m0..m5 answered as stale with "6", m6 and m7 delivered: all 8 "acknowledged"
	for _, host := range []int{1, 2} {
		n.hubs[host].ResetPeer(0) // the news arrives
		n.delivered[host] = nil
	}
	b.Broadcast([]byte("m8"))
	n.eng.RunFor(4 * RetransmitInterval)
	n.wantInOrder(t, 1, 0, 9)
	n.wantInOrder(t, 2, 0, 9)
	n.eng.Run()
	if n.eng.Pending() != 0 {
		t.Fatalf("event queue not drained: %d pending", n.eng.Pending())
	}
}
