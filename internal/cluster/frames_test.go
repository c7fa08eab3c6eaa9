package cluster_test

// The ownership contract of every fabric, checked end to end: a payload is
// not written while a transmission of it is undelivered. A message-ring frame
// in particular is one slice that the sender's mirror, every receiver, every
// retransmission and the broadcaster's self-delivery share, and so is a
// register request, which goes to every memory node and out again on each
// retransmission. A single write into one too early — a decoder appending to
// a view, a handler editing a delivered message, a mirror slot or a register
// client reusing its buffer before every transmission is answered — would
// change what some receiver reads. Register frames, ring acks, echoes and
// client replies alone go back to the router's free list after that and are
// reused: a register client releases its request frame once every
// transmission is answered (package swmr), and a completion, a ring ack, an
// echo or a reply is released once its one reader is done with it, except the
// one reply of a call that its client hands to the caller, which never
// changes. Every other payload never changes at all.

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/byz"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// frameAudit checksums every payload handed to Send and every payload
// delivered, and counts the ring and memory-node request retransmissions and,
// by kind, the reused frames sent again with new bytes.
type frameAudit struct {
	t    *testing.T
	sent []sentPayload
	// Per directed link, what the rule let through in send order and was not
	// delivered yet: the fabric is FIFO with gaps, so a delivery is the
	// oldest entry with the same slice, and older ones were lost.
	links     map[[2]ids.ID][]sentPayload
	delivered int
	late      int // deliveries whose bytes differ from their Send's
	// Ring frames by (sender, receiver, instance, slot, incarnation) and
	// register requests by (sender, memory node, sequence number): one seen
	// before is a retransmission.
	ringSeen      map[ringFrame]bool
	memSeen       map[memRequest]bool
	retransmit    int
	memRetransmit int
	lastSum       map[*byte]uint64 // a reused frame's bytes at its last Send
	recycled      map[reuse]int    // reused frames sent again with other bytes
}

// reuse is the kind of a frame that is written again after its last
// delivery; never is every other frame.
type reuse uint8

const (
	never reuse = iota
	register
	ringAck
	echo
	reply
)

type sentPayload struct {
	from, to ids.ID
	ch       uint8
	kind     reuse
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

func newFrameAudit(t *testing.T) *frameAudit {
	return &frameAudit{t: t, links: map[[2]ids.ID][]sentPayload{}, ringSeen: map[ringFrame]bool{},
		memSeen: map[memRequest]bool{}, lastSum: map[*byte]uint64{}, recycled: map[reuse]int{}}
}

// kindOf classifies a frame at its Send: register requests and completions,
// ring acks, echoes (a direct message with the echo tag) and replies to
// clients are reused.
func kindOf(ch uint8, frame []byte) reuse {
	switch ch {
	case router.ChanMemReq, router.ChanMemResp:
		return register
	case router.ChanRingAck:
		return ringAck
	case router.ChanDirect:
		if h, ok := consensus.ReadHeader(frame); ok && h.Tag == wire.TagEcho {
			return echo
		}
	case router.ChanRPC:
		if h, ok := consensus.ReadHeader(frame); ok && (h.Tag == wire.TagResponse || h.Tag == wire.TagReadResponse) {
			return reply
		}
	}
	return never
}

func (a *frameAudit) record(from, to ids.ID, payload []byte) sentPayload {
	ch, frame := router.Split(payload)
	p := sentPayload{from: from, to: to, ch: ch, kind: kindOf(ch, frame), buf: payload, sum: xcrypto.ChecksumNoCharge(payload)}
	a.sent = append(a.sent, p)
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
	if p.kind != never {
		if sum, ok := a.lastSum[&payload[0]]; ok && sum != p.sum {
			a.recycled[p.kind]++
		}
		a.lastSum[&payload[0]] = p.sum
	}
	return p
}

// seen marks k in m and returns 1 if it was already there.
func seen[K comparable](m map[K]bool, k K) int {
	if m[k] {
		return 1
	}
	m[k] = true
	return 0
}

// sameSlice reports whether a and b are the same bytes in memory.
func sameSlice(a, b []byte) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

// deliver checks one delivery against its Send.
func (a *frameAudit) deliver(from, to ids.ID, payload []byte) {
	link := [2]ids.ID{from, to}
	q := a.links[link]
	for i, p := range q {
		if sameSlice(p.buf, payload) {
			a.links[link] = q[i+1:]
			a.delivered++
			if xcrypto.ChecksumNoCharge(payload) != p.sum {
				a.fail("payload %v -> %v on channel %d (%d bytes) changed before its delivery", from, to, p.ch, len(payload))
			}
			return
		}
	}
	a.fail("payload %v -> %v (%d bytes) delivered without a Send", from, to, len(payload))
}

// fail reports a bad delivery as it happens, the first five in full: a run
// that reads changed bytes may go on to panic before it ends.
func (a *frameAudit) fail(format string, args ...any) {
	if a.late++; a.late <= 5 {
		a.t.Errorf(format, args...)
	}
}

// verify reports every delivery whose bytes were not its Send's, and every
// recorded payload of a kind never reused whose bytes changed after Send.
func (a *frameAudit) verify(t *testing.T) {
	t.Helper()
	if a.late > 0 {
		t.Errorf("%d of %d deliveries differ from their Send", a.late, a.delivered)
	}
	changed, kept := 0, 0
	for _, p := range a.sent {
		if p.kind != never {
			continue
		}
		kept++
		if xcrypto.ChecksumNoCharge(p.buf) != p.sum {
			if changed++; changed <= 5 {
				t.Errorf("payload %v -> %v on channel %d (%d bytes) changed after it was sent", p.from, p.to, p.ch, len(p.buf))
			}
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d sent payloads of a kind never reused changed after Send", changed, kept)
	}
}

// observe makes the audit net's rule: it records every frame sent on a
// live, unpartitioned link and delivers it unchanged.
func (a *frameAudit) observe(net *simnet.Network) {
	net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		link := [2]ids.ID{from, to}
		a.links[link] = append(a.links[link], a.record(from, to, frame))
		return simnet.Deliver, 0
	})
}

// watch wraps the handlers of the nodes ids, so the audit sees every
// delivery to them before their handler reads it.
func (a *frameAudit) watch(net *simnet.Network, nodes ...[]ids.ID) {
	for _, ns := range nodes {
		for _, id := range ns {
			nd := net.Node(id)
			h := nd.Handler()
			nd.SetHandler(func(from ids.ID, payload []byte) {
				a.deliver(from, id, payload)
				h(from, payload)
			})
		}
	}
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
// path), checkpoints (a small window) and a view change. Every delivery must
// carry the bytes its payload had at Send, and at the end of the run every
// payload any node ever sent, reused kinds aside, must still hold them,
// register frames, ring acks, echoes and replies must each have been reused,
// and every result a call returned must still hold its bytes.
// (Staging behind a WRITE in flight needs a burst of more than a ring's
// slots within one WRITE completion, which consensus traffic does not make;
// msgring's TestRetainedViewsNeverChange holds staged frames to the same
// rule.) In the Byzantine run the leader equivocates until it crashes, and
// the audit sits on both sides of its policy: what the node handed over,
// and what reached the wire. The slow-only run signs every CTBcast message,
// so every SIGNED frame and register value comes out of its group's one
// encode buffer.
func TestSentFramesNeverChange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy byz.Policy
		mode   ctbcast.PathMode
	}{
		{"honest", nil, ctbcast.FastWithFallback},
		{"equivocating-leader", byz.Equivocate{}, ctbcast.FastWithFallback},
		{"slow-only", nil, ctbcast.SlowOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			audit := newFrameAudit(t)
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
				CTBMode:           tc.mode,
				Fabric:            simnet.AsFabric(net),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Stop()
			audit.watch(net, u.ReplicaIDs, u.MemNodeIDs, u.ClientIDs)
			set := func(i int) []byte { return app.EncodeKVSet([]byte(fmt.Sprintf("k%03d", i)), []byte("v")) }
			// The results handed to callers are views of reply frames the
			// client never releases: they must keep their bytes to the end.
			var results [][]byte
			var resultSums []uint64
			mustSet := func(i int) {
				res, _, err := u.InvokeSync(0, set(i), 100*sim.Millisecond)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				results, resultSums = append(results, res), append(resultSums, xcrypto.ChecksumNoCharge(res))
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
				if _, _, err := u.InvokeSync(0, set(i), 50*sim.Millisecond); err == nil {
					completed++
				}
			}

			r := u.Replicas[1]
			_, slow, _ := r.GroupStats()
			t.Logf("%d payloads sent, %d delivered, %d ring and %d register request retransmissions; sent again with new bytes: %d register frames, %d ring acks, %d echoes, %d replies; view %d, %d slow decisions, %d slow CTBcast deliveries, checkpoint %d; %d/8 operations after GST",
				len(audit.sent), audit.delivered, audit.retransmit, audit.memRetransmit, audit.recycled[register], audit.recycled[ringAck], audit.recycled[echo], audit.recycled[reply],
				r.View(), r.SlowDecides, slow, r.Checkpoint().Seq, completed)
			switch {
			case audit.retransmit == 0:
				t.Error("no ring frame was retransmitted")
			case audit.memRetransmit == 0:
				t.Error("no register request was retransmitted")
			case audit.recycled[register] == 0:
				t.Error("no register frame was reused")
			case audit.recycled[ringAck] == 0:
				t.Error("no ring ack was reused")
			case audit.recycled[echo] == 0:
				t.Error("no echo was reused")
			case audit.recycled[reply] == 0:
				t.Error("no reply was reused")
			case r.View() == 0:
				t.Error("the leader crash forced no view change")
			case r.SlowDecides == 0 || slow == 0:
				t.Error("nothing took the slow path")
			case r.Checkpoint().Seq == 0:
				t.Error("no checkpoint became stable")
			}
			audit.verify(t)
			for i, res := range results {
				if xcrypto.ChecksumNoCharge(res) != resultSums[i] {
					t.Errorf("the result of operation %d changed after its call returned", i)
				}
			}
		})
	}
}
