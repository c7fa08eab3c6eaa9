package cluster_test

// The ownership contract of every fabric, checked end to end: a payload is
// immutable once sent. A message-ring frame in particular is one slice that
// the sender's mirror, every receiver, every retransmission and the
// broadcaster's self-delivery share, and so is a register request, which goes
// to every memory node and out again on each retransmission. A single write
// into one anywhere — a decoder appending to a view, a handler editing a
// delivered message, a mirror slot or a request record reusing its buffer —
// would change what some other reader sees.

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/byz"
	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/xcrypto"
)

// frameAudit records every payload handed to Send with its checksum, and
// counts the ring and memory-node request retransmissions among them.
type frameAudit struct {
	sent []sentPayload
	// Ring frames by (sender, receiver, instance, slot, incarnation) and
	// register requests by (sender, memory node, sequence number): one seen
	// before is a retransmission.
	ringSeen      map[ringFrame]bool
	memSeen       map[memRequest]bool
	retransmit    int
	memRetransmit int
}

type sentPayload struct {
	from, to ids.ID
	buf      []byte
	sum      uint64
}

type ringFrame struct {
	from, to ids.ID
	inst     msgring.Instance
	slot     uint32
	inc      uint64
}

type memRequest struct {
	from, to ids.ID
	seq      uint64
}

func newFrameAudit() *frameAudit {
	return &frameAudit{ringSeen: map[ringFrame]bool{}, memSeen: map[memRequest]bool{}}
}

func (a *frameAudit) record(from, to ids.ID, payload []byte) {
	a.sent = append(a.sent, sentPayload{from: from, to: to, buf: payload, sum: xcrypto.ChecksumNoCharge(payload)})
	ch, frame := router.Split(payload)
	switch ch {
	case router.ChanRing:
		if f, ok := msgring.ParseFrame(frame); ok {
			a.retransmit += seen(a.ringSeen, ringFrame{from: from, to: to, inst: f.Inst, slot: f.Slot, inc: f.Inc})
		}
	case router.ChanMemReq:
		if req, err := memnode.ParseRequest(frame); err == nil {
			a.memRetransmit += seen(a.memSeen, memRequest{from: from, to: to, seq: req.Seq})
		}
	}
}

// seen marks k in m and returns 1 if it was already there.
func seen[K comparable](m map[K]bool, k K) int {
	if m[k] {
		return 1
	}
	m[k] = true
	return 0
}

// verify reports every recorded payload whose bytes changed after Send.
func (a *frameAudit) verify(t *testing.T) {
	t.Helper()
	changed := 0
	for _, p := range a.sent {
		if xcrypto.ChecksumNoCharge(p.buf) != p.sum {
			if changed++; changed <= 5 {
				t.Errorf("payload %v -> %v on channel %d (%d bytes) changed after it was sent", p.from, p.to, p.buf[0], len(p.buf))
			}
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d sent payloads changed after Send", changed, len(a.sent))
	}
}

// observe makes the audit net's rule: it records every frame sent on a
// live, unpartitioned link and delivers it unchanged.
func (a *frameAudit) observe(net *simnet.Network) {
	net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		a.record(from, to, frame)
		return simnet.Deliver, 0
	})
}

// infect runs p as node id's outbound rewrite behind a recording one, so the
// audit holds what the node handed to its policy as well as what the policy
// put on the wire.
func (a *frameAudit) infect(net *simnet.Network, id ids.ID, p byz.Policy) {
	net.SetOutbound(id, func(to ids.ID, frame []byte) [][]byte {
		a.record(id, to, frame)
		return p.Outbound(to, frame)
	})
}

// TestSentFramesNeverChange runs a cluster through what touches a ring frame
// after it is sent — retransmission across a lossy pre-GST period, the
// signed slow path (the crashed leader leaves no unanimity for the fast
// path), checkpoints (a small window) and a view change — and then requires
// every payload any node ever sent to still hold the bytes it had at Send.
// (Staging behind a WRITE in flight needs a burst of more than a ring's
// slots within one WRITE completion, which consensus traffic does not make;
// msgring's TestRetainedViewsNeverChange holds staged frames to the same
// rule.) In the Byzantine run the leader equivocates until it crashes, and
// the audit sits on both sides of its policy: what the node handed over,
// and what reached the wire.
func TestSentFramesNeverChange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy byz.Policy
	}{
		{"honest", nil},
		{"equivocating-leader", byz.Equivocate{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			audit := newFrameAudit()
			net := simnet.New(sim.NewEngine(1), simnet.RDMAOptions())
			audit.observe(net)
			if tc.policy != nil {
				audit.infect(net, 0, tc.policy)
			}
			u, err := cluster.Build(cluster.Options{
				Seed:              1,
				NewApp:            func() app.StateMachine { return app.NewKV(0) },
				Window:            8,
				Tail:              8,
				SlowPathDelay:     30 * sim.Microsecond,
				ViewChangeTimeout: 3 * sim.Millisecond,
				Fabric:            simnet.AsFabric(net),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Stop()
			set := func(i int) []byte { return app.EncodeKVSet([]byte(fmt.Sprintf("k%03d", i)), []byte("v")) }
			mustSet := func(i int) {
				if _, _, err := u.InvokeSyncErr(0, set(i), 100*sim.Millisecond); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			for i := 0; i < 12; i++ {
				mustSet(i)
			}
			if err := u.KillReplica(0); err != nil {
				t.Fatal(err)
			}
			for i := 20; i < 24; i++ {
				mustSet(i)
			}
			// Pipelined load through 30 ms of drops and delays; individual
			// operations may be lost (clients do not retransmit).
			gst := u.Eng.Now().Add(30 * sim.Millisecond)
			u.Net.SetGST(gst, 300*sim.Microsecond, 0.25)
			for i := 100; u.Eng.Now() < gst; i += 4 {
				for j := 0; j < 4; j++ {
					u.Clients[0].Invoke(set(i+j), func([]byte, sim.Duration) {})
				}
				u.Eng.RunFor(3 * sim.Millisecond)
			}
			// After GST, whatever the loss left wedged is a known liveness gap,
			// not this test's subject: completions are reported, not required.
			u.Eng.RunFor(300 * sim.Millisecond)
			completed := 0
			for i := 200; i < 208; i++ {
				if _, _, err := u.InvokeSyncErr(0, set(i), 50*sim.Millisecond); err == nil {
					completed++
				}
			}

			r := u.Replicas[1]
			_, slow, _ := r.GroupStats()
			t.Logf("%d payloads sent, %d ring and %d register request retransmissions; view %d, %d slow decisions, %d slow CTBcast deliveries, checkpoint %d; %d/8 operations after GST",
				len(audit.sent), audit.retransmit, audit.memRetransmit, r.View(), r.SlowDecides, slow, r.Checkpoint().Seq, completed)
			switch {
			case audit.retransmit == 0:
				t.Error("no ring frame was retransmitted")
			case audit.memRetransmit == 0:
				t.Error("no register request was retransmitted")
			case r.View() == 0:
				t.Error("the leader crash forced no view change")
			case r.SlowDecides == 0 || slow == 0:
				t.Error("nothing took the slow path")
			case r.Checkpoint().Seq == 0:
				t.Error("no checkpoint became stable")
			}
			audit.verify(t)
		})
	}
}
