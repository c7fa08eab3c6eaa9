package consensus

// The read core (rpc.go): the main process computes a fast read the instant
// it dispatches it and captures the reply; the read core is charged the
// read's execution and sends the reply, after every reply queued before it.

import (
	"bytes"
	"testing"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
)

// kvRig is a three-replica KV rig plus a sink host (201) that sends raw read
// requests and keeps every read reply it gets.
type kvRig struct {
	*wbRig
	sink    *router.Router
	replies []readAnswer
}

// readAnswer is one decoded read reply the sink got.
type readAnswer struct {
	from         ids.ID
	num, version uint64
	flags        uint8
	result       []byte
}

func newKVRig(t *testing.T) *kvRig {
	rig := &kvRig{wbRig: newAppRig(t, func() *app.KV { return app.NewKV(0) })}
	rig.sink = router.New(rig.net.AddNode(201, "sink"))
	rig.sink.Register(router.ChanRPC, func(from ids.ID, p []byte) {
		rd := wire.NewReader(p)
		if rd.U8() != tagReadResponse {
			return
		}
		a := readAnswer{from: from, num: rd.U64(), version: rd.U64(), flags: rd.U8(), result: rd.BytesView()}
		if rd.Done() == nil {
			rig.replies = append(rig.replies, a)
		}
	})
	return rig
}

// read sends replica to an unpinned GET of key from the sink.
func (rig *kvRig) read(to ids.ID, num uint64, key string) {
	var w wire.Writer
	w.U8(router.ChanRPC)
	w.U8(tagReadRequest)
	w.U64(num)
	w.U64(0)
	w.Bytes(app.EncodeKVGet([]byte(key)))
	rig.sink.SendFrame(to, w.Finish())
}

// kvHit is the result of a GET that finds val.
func kvHit(val string) []byte {
	var w wire.Writer
	w.U8(app.StatusOK)
	w.Bytes([]byte(val))
	return w.Finish()
}

// backlog is how many replies wait on r's read core.
func backlog(r *Replica) int { return len(r.readQ) - r.readHead }

// TestReadReplyCarriesItsReadVersion: a read dispatched at version v whose
// reply is still queued when a write applies v+1 reports v and v's value; the
// read costs the read core its execution and the main process only the
// dispatch of its request.
func TestReadReplyCarriesItsReadVersion(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	r := rig.reps[1]
	set := func(s Slot, val string) {
		r.decide(s, 0, Request{Client: 200, Num: uint64(s) + 1, Payload: app.EncodeKVSet([]byte("k"), []byte(val))})
	}
	set(0, "v1")
	rig.eng.RunFor(sim.Millisecond) // both cores idle again
	if r.lastApplied != 1 {
		t.Fatalf("the write left the replica at version %d, want 1", r.lastApplied)
	}

	rig.read(1, 7, "k")
	for r.ReadsServed == 0 && rig.eng.Step() {
	}
	now := rig.eng.Now()
	cost := r.cfg.App.ExecCost(app.EncodeKVGet([]byte("k"))) + latmodel.AppExecBase
	if got := r.readProc.BusyUntil().Sub(now); got != cost {
		t.Errorf("the read moved the read core's horizon by %v, want its execution %v", got, cost)
	}
	if got := r.proc.BusyUntil().Sub(now); got != latmodel.DispatchCost {
		t.Errorf("the read moved the main process's horizon by %v, want the dispatch %v", got, latmodel.DispatchCost)
	}

	set(1, "v2")
	if r.lastApplied != 2 || backlog(r) != 1 || len(rig.replies) != 0 {
		t.Fatalf("version %d, %d replies queued, %d sent: want the write applied with the read's reply still queued",
			r.lastApplied, backlog(r), len(rig.replies))
	}
	rig.eng.RunFor(sim.Millisecond)
	if len(rig.replies) != 1 {
		t.Fatalf("%d replies, want 1", len(rig.replies))
	}
	if a := rig.replies[0]; a.num != 7 || a.version != 1 || a.flags != readFlagServed || !bytes.Equal(a.result, kvHit("v1")) {
		t.Fatalf("reply %+v, want version 1 and its value v1", a)
	}
}

// TestReadBacklogBounded: ten times readBacklogCap reads reach a replica in
// one instant. Its backlog fills to the cap and no further, every read past
// it is refused at once, and every read is answered; a client whose reads
// all land at one instant gets every one of them, widened or ordered.
func TestReadBacklogBounded(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	c := NewClient(router.New(rig.net.AddNode(200, "client")), []ids.ID{0, 1, 2}, 1)
	wrote := false
	c.Invoke(app.EncodeKVSet([]byte("k"), []byte("v")), func([]byte, sim.Duration) { wrote = true })
	for !wrote && rig.eng.Step() {
	}
	rig.eng.RunFor(sim.Millisecond) // every replica applies the write

	peak := make([]int, len(rig.reps))
	run := func(done func() bool) {
		t.Helper()
		for deadline := rig.eng.Now().Add(100 * sim.Millisecond); !done(); {
			if !rig.eng.Step() || rig.eng.Now() > deadline {
				t.Fatal("the reads did not all complete")
			}
			for i, r := range rig.reps {
				peak[i] = max(peak[i], backlog(r))
			}
		}
	}
	const total = 10 * readBacklogCap

	for i := 1; i <= total; i++ {
		rig.read(1, uint64(i), "k")
	}
	run(func() bool { return len(rig.replies) == total })
	answered := make(map[uint64]bool)
	served := 0
	for _, a := range rig.replies {
		answered[a.num] = true
		if a.flags&readFlagServed != 0 {
			served++
			if !bytes.Equal(a.result, kvHit("v")) {
				t.Fatalf("read %d answered %q", a.num, a.result)
			}
		}
	}
	if len(answered) != total || peak[1] != readBacklogCap || served < readBacklogCap || served >= 2*readBacklogCap {
		t.Fatalf("%d of %d reads answered, %d served, peak backlog %d (cap %d)", len(answered), total, served, peak[1], readBacklogCap)
	}
	if r := rig.reps[1]; backlog(r) != 0 || cap(r.readQ) > 2*readBacklogCap {
		t.Fatalf("drained backlog: %d queued, array of %d", backlog(r), cap(r.readQ))
	}

	got := 0
	for i := 0; i < total; i++ {
		c.InvokeRead(app.EncodeKVGet([]byte("k")), func(res []byte, _ sim.Duration) {
			if !bytes.Equal(res, kvHit("v")) {
				t.Errorf("client read answered %q", res)
			}
			got++
		})
	}
	run(func() bool { return got == total })
	for i, p := range peak {
		if p > readBacklogCap {
			t.Errorf("replica %d held %d replies, cap %d", i, p, readBacklogCap)
		}
	}
	if c.ReadWidens == 0 {
		t.Error("no client read was refused past the cap")
	}
}
