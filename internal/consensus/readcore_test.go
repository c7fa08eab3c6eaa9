package consensus

// The read lanes (rpc.go): a replica takes a fast read the instant it
// arrives, whatever its main process is busy with, computes it and captures
// the reply; the read core, or the crypto pool when it is idle and the read
// core is not, is charged the read's execution and both its dispatches and
// posts the reply. A read that finds both busy waits in one FIFO, and
// whichever core frees first takes the oldest waiting read, the pool only
// while it holds no crypto job.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
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

// backlog is how many replies r's read core has been charged for and not
// sent.
func backlog(r *Replica) int { return r.reads.onCore.len() }

// poolHolds reports whether r's crypto pool executes a read.
func poolHolds(r *Replica) bool { return r.reads.onPool.frame != nil }

// TestReadReplyCarriesItsReadVersion: two reads taken at version v, the
// first on the read core and the second, arriving while the read core is
// busy, borrowed by the idle crypto pool, whose replies are still queued when
// a write applies v+1, both report v and v's value; each read moves its lane
// by its charged cost (its execution and both dispatches) and does not move
// the main process.
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
	cost := r.cfg.App.ExecCost(app.EncodeKVGet([]byte("k"))) + latmodel.AppExecBase + 2*latmodel.DispatchCost
	main := r.proc.BusyUntil()
	for i, core := range []*sim.Proc{r.reads.core, r.reads.pool} {
		for r.ReadsServed == uint64(i) && rig.eng.Step() {
		}
		now := rig.eng.Now()
		if got := core.BusyUntil().Sub(now); got != cost || backlog(r) != 1 || poolHolds(r) != (i == 1) {
			t.Errorf("read %d moved %s's horizon by %v with %d replies on the read core and one on the pool %v, want its charged cost %v, 1 and %v",
				i, core.Name(), got, backlog(r), poolHolds(r), cost, i == 1)
		}
		if got := r.proc.BusyUntil(); got != main {
			t.Errorf("read %d moved the main process's horizon from %v to %v, want it unmoved", i, main, got)
		}
	}

	set(1, "v2")
	if r.lastApplied != 2 || backlog(r) != 1 || !poolHolds(r) || len(rig.replies) != 0 {
		t.Fatalf("version %d, %d replies on the read core and one on the pool %v, %d sent: want the write applied with both replies still held",
			r.lastApplied, backlog(r), poolHolds(r), len(rig.replies))
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

// TestFastReadNeverWaitsForMain: a fast read arrives while the main process
// executes an ordered SET. The replica takes it on arrival, mid-execution;
// the read core posts its reply its charged cost (execution and both
// dispatches) later, and the reply reaches the client one wire time after
// that. Neither the read nor its reply moves the main process's horizon.
func TestFastReadNeverWaitsForMain(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	r := rig.reps[1]
	orderedSet(rig, r, 0, "v1")
	cost := r.cfg.App.ExecCost(app.EncodeKVGet([]byte("k"))) + latmodel.AppExecBase + 2*latmodel.DispatchCost
	// onWire is an n-byte frame's time on the wire less its jitter, which is
	// in [0, WireJitter).
	onWire := func(n int) sim.Duration {
		o := rig.net.Options()
		return o.BaseLatency + latmodel.PerByte(n+o.HeaderBytes)
	}
	var sent, posted sim.Time
	var reqLen, repLen int
	rig.net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		switch {
		case from == 201 && to == 1: // the idle sink posts it after its dispatch
			sent, reqLen = rig.eng.Now().Add(latmodel.DispatchCost), len(frame)
		case from == 1 && to == 201:
			posted, repLen = rig.eng.Now(), len(frame)
		}
		return simnet.Deliver, 0
	})
	jittered := func(d sim.Duration) bool { return d >= 0 && d < latmodel.WireJitter }

	r.decide(1, 0, Request{Client: 200, Num: 2, Payload: app.EncodeKVSet([]byte("k"), []byte("v2"))})
	main := r.proc.BusyUntil()
	rig.read(1, 7, "k")
	for r.ReadsServed == 0 && rig.eng.Step() {
	}
	taken := rig.eng.Now()
	if !jittered(taken.Sub(sent)-onWire(reqLen)) || taken >= main || r.proc.BusyUntil() != main {
		t.Fatalf("read sent at %v taken at %v, the main process busy until %v (%v before it): want it taken on arrival, mid-execution, and the horizon unmoved",
			sent, taken, r.proc.BusyUntil(), main)
	}
	for len(rig.replies) == 0 && rig.eng.Step() {
	}
	if got := rig.eng.Now(); posted != taken.Add(cost) || !jittered(got.Sub(posted)-onWire(repLen)) || r.proc.BusyUntil() != main {
		t.Fatalf("reply posted at %v and received at %v, the main process busy until %v: want it posted at %v, one wire time before it came, and %v",
			posted, got, r.proc.BusyUntil(), taken.Add(cost), main)
	}
}

// TestReadBacklogBounded: ten times readBacklogCap reads reach a replica in
// one instant. Its queue of waiting reads fills to the cap and no further,
// both cores drain it (the pool takes the oldest waiting read each time it
// finishes one), every read past the cap is refused at once, and every read
// is answered; a client whose reads all land at one instant gets every one
// of them, widened or ordered.
func TestReadBacklogBounded(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	c := NewClient(router.New(rig.net.AddNode(200, "client")), []ids.ID{0, 1, 2})
	wrote := false
	c.Invoke(app.EncodeKVSet([]byte("k"), []byte("v")), func([]byte, sim.Duration) { wrote = true })
	for !wrote && rig.eng.Step() {
	}
	rig.eng.RunFor(sim.Millisecond) // every replica applies the write

	peak := make([]int, len(rig.reps))
	pooled, last := 0, (*byte)(nil) // replica 1's reads the pool started; the frame of the last one
	run := func(done func() bool) {
		t.Helper()
		for deadline := rig.eng.Now().Add(100 * sim.Millisecond); !done(); {
			if !rig.eng.Step() || rig.eng.Now() > deadline {
				t.Fatal("the reads did not all complete")
			}
			for i, r := range rig.reps {
				peak[i] = max(peak[i], r.reads.waiting.len())
			}
			if f := rig.reps[1].reads.onPool.frame; f != nil && &f[0] != last {
				pooled, last = pooled+1, &f[0]
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
	// 88 served, 44 of them on the pool (82 and 7 while the pool took only a
	// read that found it idle): the cap's reads, the two the cores execute
	// when it fills, and what both finished while the burst was dispatched.
	if len(answered) != total || peak[1] != readBacklogCap || pooled < readBacklogCap/2 ||
		served < readBacklogCap+2 || served >= 2*readBacklogCap {
		t.Fatalf("%d of %d reads answered, %d served, %d on the pool, peak queue %d (cap %d)",
			len(answered), total, served, pooled, peak[1], readBacklogCap)
	}
	if r := rig.reps[1]; r.reads.waiting.len() != 0 || backlog(r) != 0 || poolHolds(r) || cap(r.reads.waiting.replies) > 2*readBacklogCap {
		t.Fatalf("drained: %d waiting, %d on the read core, one on the pool %v, array of %d",
			r.reads.waiting.len(), backlog(r), poolHolds(r), cap(r.reads.waiting.replies))
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
		if p > readBacklogCap {
			t.Errorf("replica %d queued %d waiting reads (cap %d)", i, p, readBacklogCap)
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
// one has finished. The pool is never charged for more than one read ahead
// of a job, and every signature and verification starts within one read's
// charged cost (its execution and both dispatches, 14.7 µs) of its
// submission.
func TestBorrowedReadDelaysCryptoAtMostOneRead(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	r := rig.reps[1]
	readCost := r.cfg.App.ExecCost(app.EncodeKVGet([]byte("k"))) + latmodel.AppExecBase + 2*latmodel.DispatchCost
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

	borrowed, last := 0, (*byte)(nil)
	for rig.eng.Now() < end && rig.eng.Step() {
		if f := r.reads.onPool.frame; f != nil && &f[0] != last {
			borrowed, last = borrowed+1, &f[0]
		}
	}
	rig.eng.RunFor(sim.Millisecond)
	if worst > readCost || waited == 0 || borrowed == 0 || answered != submitted {
		t.Fatalf("%d of %d crypto operations waited behind a read, the longest %v (one read is %v); %d reads borrowed the pool; %d operations answered",
			waited, submitted, worst, readCost, borrowed, answered)
	}
}

// TestReadsWaitOnlyWhileBothCoresAreBusy: fast reads reach one replica every
// 5 µs, faster than its read core and crypto pool together serve them, while
// a checkpoint signature is submitted to the pool every 23 µs whenever the
// last one has finished. Whenever the lanes act (a read arrives, a core
// finishes one) and leave a read waiting, and at the end of every instant
// that leaves one waiting, the instants a crypto job ends among them, the
// read core is busy and the pool executes a read or holds a crypto job.
// Reads do wait, some of them behind a crypto job, the pool takes waiting
// reads, some as a crypto job ends, and every read is served.
func TestReadsWaitOnlyWhileBothCoresAreBusy(t *testing.T) {
	rig := newKVRig(t)
	defer rig.stop()
	r := rig.reps[1]
	st := xcrypto.CertifyCheckpoint(32, xcrypto.DigestNoCharge([]byte("state")))
	const reads = 120
	for i := 0; i < reads; i++ {
		num := uint64(i + 1)
		rig.eng.After(sim.Duration(i)*5*sim.Microsecond, func() { rig.read(1, num, "k") })
	}
	end := rig.eng.Now().Add(reads * 5 * sim.Microsecond)
	var cryptoDone sim.Time
	var tick func()
	tick = func() {
		if rig.eng.Now() >= cryptoDone {
			r.signer.SignBg(r.bgProc, r.proc, st.Bytes(), xcrypto.Job{}, func(*xcrypto.Job) {})
			cryptoDone = r.bgProc.BusyUntil()
		}
		if rig.eng.Now() < end {
			rig.eng.After(23*sim.Microsecond, tick)
		}
	}
	tick()

	// lanes is what the lanes hold: reads served, replies on the read core,
	// reads waiting and the frame of the read on the pool.
	type lanes struct {
		served        uint64
		core, waiting int
		pool          *byte
	}
	look := func() lanes {
		l := lanes{served: r.ReadsServed, core: backlog(r), waiting: r.reads.waiting.len()}
		if f := r.reads.onPool.frame; f != nil {
			l.pool = &f[0]
		}
		return l
	}
	waited, behindCrypto, fromQueue, cryptoEnds := 0, 0, 0, 0
	before := look()
	for len(rig.replies) < reads && rig.eng.Step() {
		after, now := look(), rig.eng.Now()
		if next, ok := rig.eng.NextEventTime(); after.waiting > 0 && (!ok || next > now) {
			// The instant ends with reads waiting.
			crypto := r.reads.pool.BusyUntil() > now && after.pool == nil
			if now == cryptoDone {
				cryptoEnds++
			}
			if r.reads.core.BusyUntil() <= now || after.pool == nil && !crypto {
				t.Fatalf("at %v (a crypto job ends %v) %d reads wait with the read core busy %v, a read on the pool %v and a crypto job on it %v",
					now, now == cryptoDone, after.waiting, r.reads.core.BusyUntil() > now, after.pool != nil, crypto)
			}
		}
		if after == before {
			continue // not a lane event: a crypto job, a delivery, a timer
		}
		if after.waiting > 0 {
			waited++
			crypto := r.reads.pool.BusyUntil() > rig.eng.Now() && after.pool == nil
			if crypto {
				behindCrypto++
			}
			if after.core == 0 || after.pool == nil && !crypto {
				t.Fatalf("at %v %d reads wait with %d replies on the read core, a read on the pool %v and a crypto job on it %v",
					rig.eng.Now(), after.waiting, after.core, after.pool != nil, crypto)
			}
		}
		if after.waiting < before.waiting && after.pool != nil && after.pool != before.pool && after.served == before.served {
			fromQueue++
		}
		before = after
	}
	rig.eng.RunFor(sim.Millisecond)
	if waited == 0 || behindCrypto == 0 || fromQueue == 0 || cryptoEnds == 0 || r.ReadsServed != reads || len(rig.replies) != reads {
		t.Fatalf("%d lane events left reads waiting, %d of them behind a crypto job; the pool took %d waiting reads; %d crypto jobs ended with reads waiting; %d served, %d answered of %d",
			waited, behindCrypto, fromQueue, cryptoEnds, r.ReadsServed, len(rig.replies), reads)
	}
}

// TestRealtimeReadsNeverBorrowThePool: on a realtime engine (a ubft-node host)
// execution is real work, not a modelled cost, so the read core is never busy
// and a burst of a full backlog of reads, all landing at one instant, never
// borrows the crypto pool and never waits.
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
		if poolHolds(r) || r.reads.waiting.len() != 0 {
			t.Fatalf("at %v the crypto pool holds a reply %v, %d reads wait", rig.eng.Now(), poolHolds(r), r.reads.waiting.len())
		}
	}
	if len(rig.replies) != n || r.ReadsServed != n {
		t.Fatalf("%d replies, %d reads served: want %d and %d", len(rig.replies), r.ReadsServed, n, n)
	}
}

// TestRealtimeReadRepliesUnchanged: on a realtime engine (a ubft-node host)
// nothing is charged, so taking fast reads on arrival changes nothing there: a
// stream of fast reads interleaved with ordered SETs and GETs gets the same
// replies, byte for byte, at the same instants and in the same order, with
// the replica's intake as with none (every frame delivered through the main
// process, as before the intake).
func TestRealtimeReadRepliesUnchanged(t *testing.T) {
	run := func(intake bool) []string {
		rig := newKVRig(t)
		defer rig.stop()
		rig.eng.SetRealtime(true)
		if !intake {
			rig.net.Node(1).SetIntake(nil)
		}
		r := rig.reps[1]
		var log []string
		record := func(from ids.ID, p []byte) {
			log = append(log, fmt.Sprintf("@%d %d %x", rig.eng.Now(), from, p))
		}
		router.New(rig.net.AddNode(200, "client")).Register(router.ChanRPC, record)
		sink := rig.net.Node(201)
		read := sink.Handler()
		sink.SetHandler(func(from ids.ID, p []byte) { record(from, p); read(from, p) })
		slot := Slot(0)
		for i := 0; i < 60; i++ {
			i := i
			rig.eng.After(sim.Duration(i)*sim.Microsecond, func() {
				rig.read(1, uint64(i+1), "k")
				if i%2 == 0 {
					cmd := app.EncodeKVGet([]byte("k"))
					if i%4 == 0 {
						cmd = app.EncodeKVSet([]byte("k"), []byte(fmt.Sprint(i)))
					}
					r.decide(slot, 0, Request{Client: 200, Num: uint64(slot) + 1, Payload: cmd})
					slot++
				}
			})
		}
		rig.eng.RunFor(sim.Millisecond)
		if len(rig.replies) != 60 || len(log) != 90 {
			t.Fatalf("intake %v: %d read replies and %d in all, want 60 and 90", intake, len(rig.replies), len(log))
		}
		return log
	}
	with, without := run(true), run(false)
	if !slices.Equal(with, without) {
		for j := range with {
			if with[j] != without[j] {
				t.Fatalf("reply %d: %s with the intake, %s without", j, with[j], without[j])
			}
		}
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
// its execution and the post of its reply, and posts the reply, with the
// slot it executed at, once it has spent them. The crypto pool is never charged for it, even while the
// read core is busy. The GET sent again is answered at once from the
// client's exactly-once record.
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
	done := now.Add(earlier + latmodel.AppExecBase + cost + latmodel.DispatchCost)
	if main, core := r.proc.BusyUntil().Sub(now), r.reads.core.BusyUntil(); main != earlier+latmodel.AppExecBase || core != done || backlog(r) != 1 {
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
	if core := r.reads.core.BusyUntil(); core > now || rig.net.MsgsSent != sent+2 {
		t.Fatalf("the GET sent again: read core busy until %v at %v, %d messages sent, want it idle and one reply at once",
			core, now, rig.net.MsgsSent-sent)
	}
	rig.eng.RunFor(sim.Millisecond)
	if len(*got) != 2 || (*got)[1].At != 1 || !bytes.Equal((*got)[1].Result, kvHit("v")) {
		t.Fatalf("replies %+v, want the cached answer again", *got)
	}

	// Two GETs in a row: the second finds the read core busy and the pool
	// idle, and queues on the read core all the same.
	now = rig.eng.Now()
	r.decide(2, 0, Request{Client: 200, Num: 3, Payload: get})
	r.decide(3, 0, Request{Client: 200, Num: 4, Payload: get})
	want := now.Add(latmodel.AppExecBase + 2*(cost+latmodel.DispatchCost))
	if pool := r.reads.pool.BusyUntil(); pool > now || poolHolds(r) || backlog(r) != 2 || r.reads.core.BusyUntil() != want {
		t.Fatalf("two GETs: pool busy until %v at %v, holding a read %v, %d on the read core until %v: want the pool idle and 2 on the read core until %v",
			pool, now, poolHolds(r), backlog(r), r.reads.core.BusyUntil(), want)
	}
	rig.eng.RunFor(sim.Millisecond)
	if len(*got) != 4 || (*got)[3].Num != 4 || (*got)[3].At != 3 {
		t.Fatalf("replies %+v, want the two GETs answered at slots 2 and 3", *got)
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
		core := r.reads.core.BusyUntil()
		want, wantSent := r.cfg.App.ExecCost(read)+latmodel.AppExecBase+latmodel.DispatchCost, sent+1
		if parks {
			want, wantSent = want-latmodel.DispatchCost, sent
		}
		r.decide(s, 0, Request{Client: 200, Num: uint64(s) + 1, Payload: read})
		if main := r.proc.BusyUntil().Sub(start); main != want ||
			r.reads.core.BusyUntil() != core || backlog(r) != queued || rig.net.MsgsSent != wantSent {
			t.Fatalf("the GET moved the main process's horizon by %v, the read core's to %v from %v, queued %d, sent %d: want %v, unmoved, and %d sent",
				main, r.reads.core.BusyUntil(), core, backlog(r)-queued, rig.net.MsgsSent-sent, want, wantSent-sent)
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
			r.reads.toCore(readReply{to: 201, frame: r.readReplyFrame(uint64(i), 0, nil), cost: r.cfg.App.ExecCost(get)}, rig.eng.Now())
		}
		// inline holds what each core was charged: the GET on the main
		// process, the read core unmoved. Its reply comes once the main
		// process has spent it, long before the read core spends its backlog;
		// the backlog's first replies, posted by the read core, may come
		// before it.
		inline(t, rig, r, 1, get, false)
		mainDone, coreDone := r.proc.BusyUntil(), r.reads.core.BusyUntil()
		for len(*got) == 0 && rig.eng.Step() {
		}
		if at := (*got)[0].at; at < mainDone || at >= coreDone {
			t.Fatalf("the GET's reply came at %v, want after the main process spent it at %v and before the read core's backlog ends at %v",
				at, mainDone, coreDone)
		}
		rig.eng.RunFor(sim.Millisecond)
		if len(*got) != 1 || len(rig.replies) != readBacklogCap {
			t.Fatalf("%d ordered replies and %d from the backlog: want the GET's and the backlog's %d",
				len(*got), len(rig.replies), readBacklogCap)
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
