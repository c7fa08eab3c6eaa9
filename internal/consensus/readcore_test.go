package consensus

// The read lanes (rpc.go): the main process computes a fast read the instant
// it dispatches it and captures the reply; the read core, or the crypto pool
// when it is idle and the read core is not, is charged the read's execution
// and sends the reply, after every reply queued before it on that lane.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
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
func backlog(r *Replica) int { return r.readCore.backlog() }

// TestReadReplyCarriesItsReadVersion: two reads dispatched at version v, the
// first on the read core and the second, arriving while the read core is
// busy, borrowed by the idle crypto pool, whose replies are still queued when
// a write applies v+1, both report v and v's value; each read costs its lane
// its execution and the main process only the dispatch of its request.
func TestReadReplyCarriesItsReadVersion(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	r := rig.reps[1]
	set := func(s Slot, val string) {
		r.decide(s, 0, Request{Client: 200, Num: uint64(s) + 1, Payload: app.EncodeKVSet([]byte("k"), []byte(val))})
	}
	set(0, "v1")
	rig.eng.RunFor(sim.Millisecond) // every core idle again
	if r.lastApplied != 1 {
		t.Fatalf("the write left the replica at version %d, want 1", r.lastApplied)
	}

	rig.read(1, 7, "k")
	rig.read(1, 8, "k")
	cost := r.cfg.App.ExecCost(app.EncodeKVGet([]byte("k"))) + latmodel.AppExecBase
	for i, lane := range []*readLane{&r.readCore, &r.poolLane} {
		for r.ReadsServed == uint64(i) && rig.eng.Step() {
		}
		now := rig.eng.Now()
		if got := lane.proc.BusyUntil().Sub(now); got != cost || lane.backlog() != 1 {
			t.Errorf("read %d moved %s's horizon by %v with %d replies queued, want its execution %v and 1",
				i, lane.proc.Name(), got, lane.backlog(), cost)
		}
		if got := r.proc.BusyUntil().Sub(now); got != latmodel.DispatchCost {
			t.Errorf("read %d moved the main process's horizon by %v, want the dispatch %v", i, got, latmodel.DispatchCost)
		}
	}

	set(1, "v2")
	if r.lastApplied != 2 || backlog(r) != 1 || r.poolLane.backlog() != 1 || len(rig.replies) != 0 {
		t.Fatalf("version %d, %d+%d replies queued, %d sent: want the write applied with both replies still queued",
			r.lastApplied, backlog(r), r.poolLane.backlog(), len(rig.replies))
	}
	rig.eng.RunFor(sim.Millisecond)
	if len(rig.replies) != 2 {
		t.Fatalf("%d replies, want 2", len(rig.replies))
	}
	for _, a := range rig.replies {
		if a.version != 1 || a.flags != readFlagServed || !bytes.Equal(a.result, kvHit("v1")) {
			t.Fatalf("reply %+v, want version 1 and its value v1", a)
		}
	}
}

// TestReadBacklogBounded: ten times readBacklogCap reads reach a replica in
// one instant. Its read core's backlog fills to the cap and no further, the
// crypto pool takes one read each time it is idle and never holds two, every
// read past the cap is refused at once, and every read is answered; a client
// whose reads all land at one instant gets every one of them, widened or
// ordered.
func TestReadBacklogBounded(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	c := NewClient(router.New(rig.net.AddNode(200, "client")), []ids.ID{0, 1, 2})
	wrote := false
	c.Invoke(app.EncodeKVSet([]byte("k"), []byte("v")), func([]byte, sim.Duration) { wrote = true })
	for !wrote && rig.eng.Step() {
	}
	rig.eng.RunFor(sim.Millisecond) // every replica applies the write

	peak, poolPeak := make([]int, len(rig.reps)), make([]int, len(rig.reps))
	borrowed, held := 0, 0 // replica 1's reads the pool took; its pool's backlog after the last step
	run := func(done func() bool) {
		t.Helper()
		for deadline := rig.eng.Now().Add(100 * sim.Millisecond); !done(); {
			if !rig.eng.Step() || rig.eng.Now() > deadline {
				t.Fatal("the reads did not all complete")
			}
			for i, r := range rig.reps {
				peak[i] = max(peak[i], backlog(r))
				poolPeak[i] = max(poolPeak[i], r.poolLane.backlog())
			}
			n := rig.reps[1].poolLane.backlog()
			if n > held {
				borrowed++
			}
			held = n
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
	// 82 served (75 with the read core alone): 7 borrowed by the pool, the
	// rest the read core's cap and what it finished while the burst was
	// being dispatched.
	if len(answered) != total || peak[1] != readBacklogCap || poolPeak[1] != 1 ||
		borrowed == 0 || served < readBacklogCap+borrowed || served >= 2*readBacklogCap {
		t.Fatalf("%d of %d reads answered, %d served, %d borrowed, peak backlog %d (cap %d) on the read core and %d on the pool",
			len(answered), total, served, borrowed, peak[1], readBacklogCap, poolPeak[1])
	}
	if r := rig.reps[1]; backlog(r) != 0 || r.poolLane.backlog() != 0 || cap(r.readCore.replies) > 2*readBacklogCap {
		t.Fatalf("drained backlog: %d+%d queued, array of %d", backlog(r), r.poolLane.backlog(), cap(r.readCore.replies))
	}

	got := 0
	for i := 0; i < total; i++ {
		c.Call(0, app.EncodeKVGet([]byte("k")), Mode{Read: true}, func(res []byte, _ sim.Duration) {
			if !bytes.Equal(res, kvHit("v")) {
				t.Errorf("client read answered %q", res)
			}
			got++
		})
	}
	run(func() bool { return got == total })
	for i, p := range peak {
		if p > readBacklogCap || poolPeak[i] > 1 {
			t.Errorf("replica %d held %d replies on its read core (cap %d) and %d on its pool", i, p, readBacklogCap, poolPeak[i])
		}
	}
	if c.ReadWidens == 0 {
		t.Error("no client read was refused past the cap")
	}
}

// TestBorrowedReadDelaysCryptoAtMostOneRead: reads arrive at one replica
// three times as fast as its read core serves them, so they borrow the idle
// crypto pool again and again, while a checkpoint signature or a checkpoint
// share verification is submitted to the pool every 23 µs whenever the last
// one has finished. The pool never holds two replies, and every signature
// and verification starts within one read's execution of its submission.
func TestBorrowedReadDelaysCryptoAtMostOneRead(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	r := rig.reps[1]
	readCost := r.cfg.App.ExecCost(app.EncodeKVGet([]byte("k"))) + latmodel.AppExecBase
	const signCost = latmodel.SignCost + latmodel.CryptoDispatchCost
	const verifyCost = latmodel.VerifyCost + latmodel.CryptoDispatchCost
	st := xcrypto.CertifyCheckpoint(32, xcrypto.DigestNoCharge([]byte("state")))
	share := rig.reg.Signer(0).Sign(sim.NewProc(rig.eng, "signing"), st.Bytes())

	const reads = 400
	for i := 0; i < reads; i++ {
		num := uint64(i + 1)
		rig.eng.After(sim.Duration(i)*5*sim.Microsecond, func() { rig.read(1, num, "k") })
	}
	end := rig.eng.Now().Add(reads * 5 * sim.Microsecond)

	var submitted, waited, answered int
	var worst sim.Duration
	var cryptoDone sim.Time
	var tick func()
	tick = func() {
		if now := rig.eng.Now(); now >= cryptoDone {
			cost := sim.Duration(signCost)
			if submitted%2 == 0 {
				r.signer.SignBg(r.bgProc, r.proc, st.Bytes(), xcrypto.Job{}, func(j *xcrypto.Job) {
					if len(j.Sig) != 0 {
						answered++
					}
				})
			} else {
				cost = verifyCost
				r.signer.VerifyBg(r.bgProc, r.proc, st.Bytes(), xcrypto.Job{From: 0, Sig: share}, func(j *xcrypto.Job) {
					if j.OK {
						answered++
					}
				})
			}
			submitted++
			cryptoDone = r.bgProc.BusyUntil()
			if wait := cryptoDone.Sub(now) - cost; wait > 0 {
				waited++
				worst = max(worst, wait)
			}
		}
		if rig.eng.Now() < end {
			rig.eng.After(23*sim.Microsecond, tick)
		}
	}
	tick()

	borrowed, held := 0, 0
	for rig.eng.Now() < end && rig.eng.Step() {
		n := r.poolLane.backlog()
		if n > 1 {
			t.Fatalf("at %v the crypto pool holds %d replies", rig.eng.Now(), n)
		}
		if n > held {
			borrowed++
		}
		held = n
	}
	rig.eng.RunFor(sim.Millisecond)
	if worst > readCost || waited == 0 || borrowed == 0 || answered != submitted {
		t.Fatalf("%d of %d crypto operations waited behind a read, the longest %v (one read is %v); %d reads borrowed the pool; %d operations answered",
			waited, submitted, worst, readCost, borrowed, answered)
	}
}

// TestRealtimeReadsNeverBorrowThePool: on a realtime engine (a ubft-node host)
// execution is real work, not a modelled cost, so the read core is never busy
// and a burst of a full backlog of reads, all landing at one instant, never
// borrows the crypto pool.
func TestRealtimeReadsNeverBorrowThePool(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	rig.eng.SetRealtime(true)
	r := rig.reps[1]
	const n = readBacklogCap
	for i := 1; i <= n; i++ {
		rig.read(1, uint64(i), "k")
	}
	for len(rig.replies) < n && rig.eng.Step() {
		if r.poolLane.backlog() != 0 {
			t.Fatalf("at %v the crypto pool holds a reply", rig.eng.Now())
		}
	}
	if len(rig.replies) != n || r.ReadsServed != n || cap(r.poolLane.replies) != 0 {
		t.Fatalf("%d replies, %d reads served, pool lane array of %d: want %d, %d and none", len(rig.replies), r.ReadsServed, cap(r.poolLane.replies), n, n)
	}
}

// timedReply is one ordered reply a client got, and when.
type timedReply struct {
	Reply
	at sim.Time
}

// orderedClient adds client 200 to rig and returns the ordered replies it
// gets.
func orderedClient(rig *kvRig) *[]timedReply {
	got := new([]timedReply)
	router.New(rig.net.AddNode(200, "client")).Register(router.ChanRPC, func(_ ids.ID, p []byte) {
		if rep, ok := ParseReply(p); ok && rep.Tag == tagResponse {
			rep.Result = slices.Clone(rep.Result)
			*got = append(*got, timedReply{rep, rig.eng.Now()})
		}
	})
	return got
}

// orderedSet decides client 200's SET of k at slot s on r and lets every
// core go idle again.
func orderedSet(rig *kvRig, r *Replica, s Slot, val string) {
	r.decide(s, 0, Request{Client: 200, Num: uint64(s) + 1, Payload: app.EncodeKVSet([]byte("k"), []byte(val))})
	rig.eng.RunFor(sim.Millisecond)
}

// TestOrderedReadsRunOnTheIdleReadCore: in a group that has served no fast
// read, an ordered GET costs the main process its dispatch only; the read
// core, handed the GET when the main process has dispatched it, is charged
// its execution and sends the reply, with the slot it executed at, once it
// has spent it. The GET sent again is answered at once from the client's
// exactly-once record.
func TestOrderedReadsRunOnTheIdleReadCore(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	got := orderedClient(rig)
	r := rig.reps[1]
	orderedSet(rig, r, 0, "v")
	*got = nil

	get := app.EncodeKVGet([]byte("k"))
	cost := r.cfg.App.ExecCost(get)
	now, sent := rig.eng.Now(), rig.net.MsgsSent
	// Work the main process took on earlier in the same handler (an earlier
	// command of the batch, say) delays the hand-off by as much.
	const earlier = 10 * sim.Microsecond
	r.proc.Charge(earlier)
	r.decide(1, 0, Request{Client: 200, Num: 2, Payload: get})
	done := now.Add(earlier + latmodel.AppExecBase + cost)
	if main, core := r.proc.BusyUntil().Sub(now), r.readCore.proc.BusyUntil(); main != earlier+latmodel.AppExecBase || core != done || backlog(r) != 1 {
		t.Fatalf("the GET moved the main process's horizon by %v and the read core's to %v, %d queued: want %v, %v and 1",
			main, core, backlog(r), earlier+latmodel.AppExecBase, done)
	}
	if rig.net.MsgsSent != sent {
		t.Fatal("the reply left before the read core spent the read")
	}
	for rig.net.MsgsSent == sent && rig.eng.Step() {
	}
	if left := rig.eng.Now(); left != done {
		t.Fatalf("the reply left at %v, want when the read core finished, %v", left, done)
	}
	rig.eng.RunFor(sim.Millisecond)
	if len(*got) != 1 || (*got)[0].Num != 2 || (*got)[0].At != 1 || (*got)[0].Flags != 0 || !bytes.Equal((*got)[0].Result, kvHit("v")) {
		t.Fatalf("replies %+v, want one for request 2 at slot 1 with v", *got)
	}

	w := wire.NewWriter(32)
	w.U8(tagRequest)
	Request{Client: 200, Num: 2, Payload: get}.encode(w)
	now = rig.eng.Now()
	r.onRPC(200, w.Finish())
	if core := r.readCore.proc.BusyUntil(); core > now || rig.net.MsgsSent != sent+2 {
		t.Fatalf("the GET sent again: read core busy until %v at %v, %d messages sent, want it idle and one reply at once",
			core, now, rig.net.MsgsSent-sent)
	}
	rig.eng.RunFor(sim.Millisecond)
	if len(*got) != 2 || (*got)[1].At != 1 || !bytes.Equal((*got)[1].Result, kvHit("v")) {
		t.Fatalf("replies %+v, want the cached answer again", *got)
	}
}

// TestOrderedReadsStayOnMain: an ordered GET is charged on the main process,
// its execution and the send of its reply, as a write is, and the read core
// is left alone, once the replica has served a fast read, when the GET parks
// on a transaction's lock (an MGET; it is answered at the commit), and when
// the read core's backlog is full.
func TestOrderedReadsStayOnMain(t *testing.T) {
	get, mget := app.EncodeKVGet([]byte("k")), app.EncodeKVMGet([]byte("k"))
	// inline decides client 200's read at slot s on r and requires the
	// parent's charges: dispatch and execution on the main process, and the
	// send of its reply unless it parked.
	inline := func(t *testing.T, rig *kvRig, r *Replica, s Slot, read []byte, parks bool) {
		t.Helper()
		start, sent, queued := max(rig.eng.Now(), r.proc.BusyUntil()), rig.net.MsgsSent, backlog(r)
		core := r.readCore.proc.BusyUntil()
		want, wantSent := r.cfg.App.ExecCost(read)+latmodel.AppExecBase+latmodel.DispatchCost, sent+1
		if parks {
			want, wantSent = want-latmodel.DispatchCost, sent
		}
		r.decide(s, 0, Request{Client: 200, Num: uint64(s) + 1, Payload: read})
		if main := r.proc.BusyUntil().Sub(start); main != want ||
			r.readCore.proc.BusyUntil() != core || backlog(r) != queued || rig.net.MsgsSent != wantSent {
			t.Fatalf("the GET moved the main process's horizon by %v, the read core's to %v from %v, queued %d, sent %d: want %v, unmoved, and %d sent",
				main, r.readCore.proc.BusyUntil(), core, backlog(r)-queued, rig.net.MsgsSent-sent, want, wantSent-sent)
		}
	}

	t.Run("after a fast read", func(t *testing.T) {
		rig := newKVRig(t)
		defer rig.stop()
		got := orderedClient(rig)
		r := rig.reps[1]
		orderedSet(rig, r, 0, "v")
		rig.read(1, 7, "k")
		rig.eng.RunFor(sim.Millisecond)
		if len(rig.replies) != 1 {
			t.Fatalf("%d fast replies, want 1", len(rig.replies))
		}
		*got = nil
		inline(t, rig, r, 1, get, false)
		rig.eng.RunFor(sim.Millisecond)
		if len(*got) != 1 || (*got)[0].At != 1 || !bytes.Equal((*got)[0].Result, kvHit("v")) {
			t.Fatalf("replies %+v, want one at slot 1 with v", *got)
		}
	})

	t.Run("parked on a lock", func(t *testing.T) {
		rig := newKVRig(t)
		defer rig.stop()
		got := orderedClient(rig)
		r := rig.reps[1]
		orderedSet(rig, r, 0, "v")
		frag := app.EncodeKVMSet(app.Pair{Key: []byte("k"), Val: []byte("w")})
		r.decide(1, 0, Request{Client: 201, Num: 1, Payload: app.EncodeTxnPrepare(nil, 1, 0, frag)})
		rig.eng.RunFor(sim.Millisecond)
		*got = nil
		inline(t, rig, r, 2, mget, true)
		r.decide(3, 0, Request{Client: 201, Num: 2, Payload: app.EncodeTxnCommit(nil, 1)})
		rig.eng.RunFor(sim.Millisecond)
		committed := app.NewKV(0)
		committed.Apply(app.EncodeKVSet([]byte("k"), []byte("w")))
		if len(*got) != 1 || (*got)[0].At != 3 || (*got)[0].Flags != respFlagParked || !bytes.Equal((*got)[0].Result, committed.Apply(mget)) {
			t.Fatalf("replies %+v, want one at the commit's slot 3, parked, with w", *got)
		}
	})

	t.Run("full backlog", func(t *testing.T) {
		rig := newKVRig(t)
		defer rig.stop()
		got := orderedClient(rig)
		r := rig.reps[1]
		orderedSet(rig, r, 0, "v")
		*got = nil
		for i := 1; i <= readBacklogCap; i++ {
			r.readCore.push(readReply{to: 201, frame: r.readReplyFrame(uint64(i), 0, nil)}, r.cfg.App.ExecCost(get), rig.eng.Now())
		}
		inline(t, rig, r, 1, get, false)
		for len(*got) == 0 && rig.eng.Step() {
		}
		early := len(rig.replies)
		rig.eng.RunFor(sim.Millisecond)
		if len(*got) != 1 || early != 0 || len(rig.replies) != readBacklogCap {
			t.Fatalf("%d ordered replies, %d replies from the backlog before it and %d in all: want the GET's first, then the backlog's %d",
				len(*got), early, len(rig.replies), readBacklogCap)
		}
	})
}

// TestMixedModeRepliesMatch: one replica that has served a fast read
// answers an ordered GET from its main process, one that has not (a rebuilt
// replica, or one never asked) from its read core. Both replies carry the
// same slot, flags and result, and on idle replicas they leave within one
// reply send of each other; under load they part by up to the queue of the
// core each chose (ARCHITECTURE.md, "Ordered reads on the read core").
func TestMixedModeRepliesMatch(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	got := orderedClient(rig)
	fast, clear := rig.reps[1], rig.reps[2]
	for _, r := range []*Replica{fast, clear} {
		orderedSet(rig, r, 0, "v")
	}
	rig.read(1, 7, "k")
	rig.eng.RunFor(sim.Millisecond)
	if !fast.servesFastReads || clear.servesFastReads {
		t.Fatalf("fast read served: modes %v and %v, want true and false", fast.servesFastReads, clear.servesFastReads)
	}
	*got = nil
	get := Request{Client: 200, Num: 2, Payload: app.EncodeKVGet([]byte("k"))}
	fast.decide(1, 0, get)
	clear.decide(1, 0, get)
	if backlog(fast) != 0 || backlog(clear) != 1 {
		t.Fatalf("read-core backlogs %d and %d, want 0 and 1", backlog(fast), backlog(clear))
	}
	rig.eng.RunFor(sim.Millisecond)
	if len(*got) != 2 {
		t.Fatalf("%d replies, want 2", len(*got))
	}
	a, b := (*got)[0], (*got)[1]
	if a.Num != b.Num || a.At != b.At || a.Flags != b.Flags || !bytes.Equal(a.Result, b.Result) || !bytes.Equal(a.Result, kvHit("v")) {
		t.Fatalf("replies %+v and %+v, want the same answer, v at slot 1", a.Reply, b.Reply)
	}
	if spread := max(b.at.Sub(a.at), a.at.Sub(b.at)); spread > latmodel.DispatchCost {
		t.Fatalf("replies left %v apart, want at most one send (%v)", spread, latmodel.DispatchCost)
	}
}
