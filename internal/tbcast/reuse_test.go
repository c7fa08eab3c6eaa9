package tbcast

// Ring acks are recycled: a listener takes each from the router's free list
// and the broadcaster's hub releases it once parsed. These tests hold the
// contract under the faults that keep a frame from its one reader: a held
// link and a lossy pre-GST period.

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// ackAudit keeps every ack frame of a net3 from its Send to its delivery,
// with the bytes it had at Send.
type ackAudit struct {
	inFlight map[*byte]string // sent, not delivered: held, in the air or lost
	sentOnce map[*byte]bool   // every ack frame ever sent
	reused   int              // ack frames sent again after their delivery
	bad      []string
}

// auditAcks makes fate the fabric's rule and records every ack on the way.
func (n *net3) auditAcks(fate func(from, to ids.ID) simnet.Fate) *ackAudit {
	a := &ackAudit{inFlight: map[*byte]string{}, sentOnce: map[*byte]bool{}}
	n.net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		if ch, _ := router.Split(frame); ch == router.ChanRingAck {
			p := &frame[0]
			if _, ok := a.inFlight[p]; ok {
				a.bad = append(a.bad, fmt.Sprintf("ack %v -> %v sent in a frame whose last ack is undelivered", from, to))
			}
			if a.sentOnce[p] {
				a.reused++
			}
			a.inFlight[p], a.sentOnce[p] = string(frame), true
		}
		return fate(from, to), 0
	})
	for i := range n.rts {
		nd := n.net.Node(ids.ID(i))
		h := nd.Handler()
		nd.SetHandler(func(from ids.ID, frame []byte) {
			if ch, _ := router.Split(frame); ch == router.ChanRingAck {
				if want, ok := a.inFlight[&frame[0]]; !ok || want != string(frame) {
					a.bad = append(a.bad, fmt.Sprintf("ack %v -> %d delivered with other bytes than its Send's", from, i))
				}
				delete(a.inFlight, &frame[0])
			}
			h(from, frame)
		})
	}
	return a
}

func (a *ackAudit) check(t *testing.T) {
	t.Helper()
	for i, msg := range a.bad {
		if i < 5 {
			t.Error(msg)
		}
	}
	if len(a.bad) > 0 {
		t.Errorf("%d ack frames broke the contract", len(a.bad))
	}
	if a.reused == 0 {
		t.Error("no ack frame was reused")
	}
}

// TestHeldAcksKeepTheirBytes: host 1's link to the broadcaster is held for
// 3 ms while both listeners keep acknowledging. Host 2's acks are delivered
// and recycled meanwhile; none of host 1's held frames is handed out again,
// and once the link is released each is delivered with the bytes it had at
// Send.
func TestHeldAcksKeepTheirBytes(t *testing.T) {
	n := newNet3(t)
	b := n.broadcaster(0, 1, 16, 64)
	holding := true
	a := n.auditAcks(func(from, to ids.ID) simnet.Fate {
		if holding && from == 1 && to == 0 {
			return simnet.Hold
		}
		return simnet.Deliver
	})
	const total = 150
	for i := range total {
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
		n.eng.RunFor(20 * sim.Microsecond)
	}
	held := len(a.inFlight)
	holding = false
	n.net.Release(1, 0)
	n.eng.Run()
	t.Logf("%d acks held for 3 ms, %d ack frames reused", held, a.reused)
	a.check(t)
	if held < 2 {
		t.Errorf("%d acks held on the link, want several", held)
	}
	if len(a.inFlight) != 0 {
		t.Errorf("%d held acks never delivered", len(a.inFlight))
	}
	n.wantInOrder(t, 1, 0, total)
	n.wantInOrder(t, 2, 0, total)
}

// TestDroppedAcksNeverReused: before GST the fabric drops frames at random.
// An ack it dropped never reaches its reader, so it is never released, and
// no later ack is sent in it.
func TestDroppedAcksNeverReused(t *testing.T) {
	n := newNet3(t)
	gst := n.eng.Now().Add(2 * sim.Millisecond)
	n.net.SetGST(gst, 100*sim.Microsecond, 0.4)
	b := n.broadcaster(0, 1, 16, 64)
	a := n.auditAcks(func(ids.ID, ids.ID) simnet.Fate { return simnet.Deliver })
	const total = 200
	for i := range total {
		b.Broadcast([]byte(fmt.Sprintf("m%d", i)))
		n.eng.RunFor(20 * sim.Microsecond)
	}
	n.eng.Run()
	t.Logf("%d acks lost before GST, %d ack frames reused", len(a.inFlight), a.reused)
	a.check(t)
	if len(a.inFlight) == 0 {
		t.Error("no ack was lost before GST")
	}
	for host := 1; host < 3; host++ {
		if got := n.delivered[host]; len(got) == 0 || got[len(got)-1] != fmt.Sprintf("m%d", total-1) {
			t.Errorf("host %d did not deliver the last message after GST", host)
		}
	}
}
