package frames_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/frames"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tbcast"
	"repro/internal/wire"
)

// consensusMsg is a message of the given consensus or RPC tag whose header
// fields all hold values: view 3, slot 7, client 200, request 5.
func consensusMsg(tag uint8) []byte {
	w := wire.NewWriter(64)
	w.U8(tag)
	switch tag {
	case wire.TagRequest:
	case wire.TagReadRequest, wire.TagResponse, wire.TagReadResponse:
		w.U64(5)
		w.U64(7)
	default:
		w.U64(3)
		w.U64(7)
	}
	w.I64(200)
	w.U64(5)
	w.Bytes([]byte("x"))
	return w.Finish()
}

// ringFrame frames m on ring instance inst.
func ringFrame(inst msgring.Instance, m []byte) []byte {
	return msgring.EncodeFrame(msgring.Frame{Inst: inst, Slot: 1, Inc: 1, Msg: m})
}

// ctbMsg is m inside a CTBcast message of the given ring tag.
func ctbMsg(tag uint8, m []byte) []byte {
	w := wire.NewWriter(len(m) + 96)
	ctbcast.AppendMsg(w, ctbcast.Msg{Tag: tag, K: 9, M: m, Sig: make([]byte, 64)})
	return w.Finish()
}

// seeds holds one frame per channel tag and per ring, consensus and RPC tag
// of the wire registry, each in every layer that carries it, for a group of
// three replicas (instance 0 is replica 0's CTBcast channel, 1 to 3 the
// LOCKED channels of its group and 4 its auxiliary channel).
func seeds() [][]byte {
	var out [][]byte
	for _, ch := range []uint8{wire.ChanMemReq, wire.ChanMemResp, wire.ChanRing, wire.ChanRingAck,
		wire.ChanRPC, wire.ChanDirect, wire.ChanBaseline, wire.ChanSummary} {
		out = append(out, []byte{ch, 1, 2, 3})
	}
	prepare := consensusMsg(wire.TagPrepare)
	for _, tag := range []uint8{wire.RingTagLock, wire.RingTagSigned, wire.RingTagSummary, wire.RingTagLocked} {
		out = append(out, ringFrame(0, ctbMsg(tag, prepare)), ringFrame(2, ctbMsg(tag, prepare)))
	}
	out = append(out, append([]byte{wire.ChanSummary}, ctbMsg(wire.RingTagSummaryShare, nil)...))
	for _, tag := range []uint8{wire.TagPrepare, wire.TagCommit, wire.TagCheckpoint, wire.TagSealView,
		wire.TagNewView, wire.TagNewViewFrag, wire.TagCertify, wire.TagWillCertify, wire.TagWillCommit,
		wire.TagCertifyCP, wire.TagCertifyVC, wire.TagStateReq, wire.TagStateResp, wire.TagEcho,
		wire.TagJoinProbe, wire.TagJoinAns} {
		m := consensusMsg(tag)
		out = append(out, ringFrame(0, ctbMsg(wire.RingTagLock, m)), ringFrame(4, m), append([]byte{wire.ChanDirect}, m...))
	}
	for _, tag := range []uint8{wire.TagRequest, wire.TagResponse, wire.TagReadRequest, wire.TagReadResponse} {
		out = append(out, append([]byte{wire.ChanRPC}, consensusMsg(tag)...))
	}
	return append(out, tbcast.AppendAck(nil, 4, 9), memnode.EncodeRead(nil, 1), nil)
}

// FuzzDescribe: Describe reads any bytes as a frame without panicking.
func FuzzDescribe(f *testing.F) {
	for _, s := range seeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		_ = frames.Describe(3, frame).String()
	})
}

// TestDescribeLayers: what the seeds of one consensus message say at every
// layer that carries it.
func TestDescribeLayers(t *testing.T) {
	head := consensus.Header{Tag: wire.TagPrepare, View: 3, Slot: 7, Client: 200, Num: 5}
	for _, tc := range []struct {
		frame []byte
		want  frames.Desc
	}{
		{ringFrame(0, ctbMsg(wire.RingTagLock, consensusMsg(wire.TagPrepare))),
			frames.Desc{Chan: wire.ChanRing, Ring: true, Kind: consensus.RingBroadcast, CTB: wire.RingTagLock, K: 9, Header: head}},
		{ringFrame(7, ctbMsg(wire.RingTagLocked, consensusMsg(wire.TagPrepare))),
			frames.Desc{Chan: wire.ChanRing, Ring: true, Inst: 7, Owner: 1, Kind: consensus.RingLocked, CTB: wire.RingTagLocked, K: 9, Header: head}},
		{ringFrame(4, consensusMsg(wire.TagWillCommit)),
			frames.Desc{Chan: wire.ChanRing, Ring: true, Inst: 4, Kind: consensus.RingAux, Header: consensus.Header{Tag: wire.TagWillCommit, View: 3, Slot: 7}}},
		{append([]byte{wire.ChanRPC}, consensusMsg(wire.TagRequest)...),
			frames.Desc{Chan: wire.ChanRPC, Header: consensus.Header{Tag: wire.TagRequest, Client: 200, Num: 5}}},
		{consensus.EncodeReply(consensus.Reply{Tag: wire.TagResponse, Num: 5, At: 7}),
			frames.Desc{Chan: wire.ChanRPC, Header: consensus.Header{Tag: wire.TagResponse, Slot: 7, Num: 5}}},
		{ringFrame(9, []byte{wire.RingTagLock}), frames.Desc{Chan: wire.ChanRing, Ring: true, Inst: 9, Owner: 1, Kind: consensus.RingAux}},
	} {
		if got := frames.Describe(3, tc.frame); got != tc.want {
			t.Errorf("Describe = %v, want %v", got, tc.want)
		}
	}
}

// capture is one frame a node handed to the network.
type capture struct {
	from, to ids.ID
	frame    []byte
}

// TestOwnerCodecsReadEveryFrame runs a small cluster through the slow path
// (the leader crashes, so no LOCK reaches unanimity), checkpoints (an
// 8-slot window), a view change and a lossy period that makes the rings
// retransmit, and captures every frame sent. Each owner's codec must
// re-encode every frame of its layout byte for byte, and every frame that
// carries one PREPARE — the LOCK to each follower, each LOCKED echo, each
// SIGNED, every retransmission — must describe to the same (view, slot,
// client, num), the PREPARE's own.
func TestOwnerCodecsReadEveryFrame(t *testing.T) {
	net := simnet.New(sim.NewEngine(1), simnet.RDMAOptions())
	var sent []capture
	net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		// A ring ack, a register request or a reply (on the RPC channel) is
		// written again once it is answered or read, so keep its bytes as
		// sent.
		if ch, _ := router.Split(frame); ch == router.ChanRingAck || ch == router.ChanMemReq || ch == router.ChanRPC {
			frame = bytes.Clone(frame)
		}
		sent = append(sent, capture{from, to, frame})
		return simnet.Deliver, 0
	})
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
	set := func(i int) {
		u.InvokeSync(0, app.EncodeKVSet([]byte(fmt.Sprintf("k%03d", i)), []byte("v")), 50*sim.Millisecond)
	}
	for i := 0; i < 12; i++ {
		set(i)
	}
	if err := u.KillReplica(0); err != nil {
		t.Fatal(err)
	}
	net.SetGST(u.Eng.Now().Add(10*sim.Millisecond), 300*sim.Microsecond, 0.25)
	for i := 12; i < 24; i++ {
		set(i)
	}
	u.Eng.RunFor(100 * sim.Millisecond)

	n := len(u.ReplicaIDs)
	byPrepare := map[string][]frames.Desc{}
	seen := map[string]bool{}
	kinds := map[string]map[string]bool{}
	checked := map[uint8]int{}
	mismatch := func(what string, c capture) {
		t.Errorf("%s does not re-encode a frame %v -> %v: %v", what, c.from, c.to, frames.Describe(n, c.frame))
	}
	for _, c := range sent {
		ch, payload := router.Split(c.frame)
		checked[ch]++
		switch ch {
		case router.ChanRing:
			f, ok := msgring.ParseFrame(payload)
			if !ok || !bytes.Equal(msgring.EncodeFrame(f), c.frame) {
				mismatch("msgring", c)
				continue
			}
			m, ok := ctbcast.ParseMsg(f.Msg)
			if _, kind := consensus.RingOf(n, f.Inst); kind == consensus.RingAux || !ok {
				continue
			}
			w := wire.NewWriter(len(f.Msg))
			if ctbcast.AppendMsg(w, m); !bytes.Equal(w.Finish(), f.Msg) {
				mismatch("ctbcast", c)
			}
			pr, err := consensus.DecodePrepare(m.M)
			if err != nil {
				continue
			}
			if !bytes.Equal(consensus.EncodePrepare(pr), m.M) {
				mismatch("consensus PREPARE", c)
			}
			key := string(m.M)
			d := frames.Describe(n, c.frame)
			if want := (consensus.Header{Tag: wire.TagPrepare, View: pr.View, Slot: pr.Slot, Client: pr.Req.Client, Num: pr.Req.Num}); d.Header != want {
				t.Errorf("a frame carrying %+v describes as %v", want, d)
			}
			byPrepare[key] = append(byPrepare[key], d)
			if kinds[key] == nil {
				kinds[key] = map[string]bool{}
			}
			link := fmt.Sprint(c.from, c.to, string(c.frame))
			kinds[key][fmt.Sprint("ctb", m.Tag)] = true
			kinds[key]["retransmitted"] = kinds[key]["retransmitted"] || seen[link]
			seen[link] = true
		case router.ChanRingAck:
			inst, upTo, ok := tbcast.ParseAck(payload)
			if !ok || !bytes.Equal(tbcast.AppendAck(nil, inst, upTo), c.frame) {
				mismatch("tbcast ack", c)
			}
		case router.ChanRPC:
			if rep, ok := consensus.ParseReply(payload); ok && !bytes.Equal(consensus.EncodeReply(rep), c.frame) {
				mismatch("consensus reply", c)
			}
		case router.ChanMemReq:
			req, err := memnode.ParseRequest(payload)
			var again []byte
			if req.Op == wire.MemOpWrite {
				var data []byte
				again, data = memnode.EncodeWrite(nil, req.Region, req.Off, len(req.Data))
				copy(data, req.Data)
			} else {
				again = memnode.EncodeRead(nil, req.Region)
			}
			if memnode.SetSeq(again, req.Seq); err != nil || !bytes.Equal(again, c.frame) {
				mismatch("memnode request", c)
			}
		}
	}
	full, views := 0, map[consensus.View]bool{}
	for key, ds := range byPrepare {
		for _, d := range ds[1:] {
			if d.Header != ds[0].Header {
				t.Errorf("one PREPARE describes as %v and as %v", ds[0], d)
			}
		}
		views[ds[0].View] = true
		k := kinds[key]
		if k[fmt.Sprint("ctb", wire.RingTagLock)] && k[fmt.Sprint("ctb", wire.RingTagLocked)] && k[fmt.Sprint("ctb", wire.RingTagSigned)] && k["retransmitted"] {
			full++
		}
	}
	t.Logf("%d frames (by channel %v), %d PREPAREs in %d views, %d carried by LOCK, LOCKED, SIGNED and a retransmission",
		len(sent), checked, len(byPrepare), len(views), full)
	if full == 0 || len(views) < 2 || u.Replicas[1].Checkpoint().Seq == 0 || min(checked[wire.ChanRingAck], checked[wire.ChanRPC], checked[wire.ChanMemReq]) == 0 {
		t.Errorf("the run lacks a PREPARE on every path, a view change or a checkpoint")
	}
}
