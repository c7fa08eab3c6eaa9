package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/app"
	"repro/internal/baselines/minbft"
	"repro/internal/cluster"
	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/nettrans"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/swmr"
	"repro/internal/tbcast"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file measures the layers that a fabric wrapper cannot isolate, each
// on a small rig built from its public constructor: one call, timed until
// its completion callback, in virtual microseconds (what the layer costs a
// request's latency) and host nanoseconds (what it costs the processor). The
// rigs do not depend on the workload: a traced invocation measures them once.

// rigWait bounds one rig operation in virtual time.
const rigWait = 50 * sim.Millisecond

// stepUntil runs the engine until done reports true, and reports whether it
// did before rigWait of virtual time passed or the engine ran dry.
func stepUntil(eng *sim.Engine, done func() bool) bool {
	deadline := eng.Now().Add(rigWait)
	for !done() {
		if eng.Now() >= deadline || !eng.Step() {
			return done()
		}
	}
	return true
}

// rigTimer accumulates the samples of one rig.
type rigTimer struct {
	virtUs []float64
	hostNs int64
}

// sample times one operation: start issues it, done reports completion.
func (r *rigTimer) sample(eng *sim.Engine, start func(), done func() bool) {
	v0, t0 := eng.Now(), time.Now()
	start()
	if stepUntil(eng, done) {
		r.virtUs = append(r.virtUs, eng.Now().Sub(v0).Micros())
	}
	r.hostNs += time.Since(t0).Nanoseconds()
}

func (r *rigTimer) report(m metrics, virtName, cpuName string, attempts int) {
	m.set(virtName, median(r.virtUs), len(r.virtUs))
	m.set(cpuName, ratio(float64(r.hostNs), float64(attempts)), attempts)
}

// simHosts adds n compute hosts (ids 0..n-1) and three memory nodes (ids
// 100..102) to a fresh simulated network.
func simHosts(seed int64, n int) (*sim.Engine, []*router.Router, []*memnode.Node, []ids.ID) {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng, simnet.RDMAOptions())
	var mns []*memnode.Node
	var memIDs []ids.ID
	for i := 0; i < 3; i++ {
		id := ids.ID(100 + i)
		memIDs = append(memIDs, id)
		mns = append(mns, memnode.New(router.New(net.AddNode(id, fmt.Sprintf("mem%d", i)))))
	}
	var rts []*router.Router
	for i := 0; i < n; i++ {
		rts = append(rts, router.New(net.AddNode(ids.ID(i), fmt.Sprintf("p%d", i))))
	}
	return eng, rts, mns, memIDs
}

// rigCTBcast times one CTBcast broadcast until all three members deliver
// (Fig 10), on the fast or the signed slow path.
func rigCTBcast(m metrics, seed int64, mode ctbcast.PathMode, n int, virtName, cpuName string) {
	const tail, msgSize = 32, 64
	eng, rts, mns, memIDs := simHosts(seed, 3)
	procs := []ids.ID{0, 1, 2}
	ctbcast.AllocateRegions(mns, procs, tail, 0)
	reg := xcrypto.NewRegistry(seed+3, procs)
	delivered := make([]uint64, 3)
	var groups []*ctbcast.Group
	for i, rt := range rts {
		i := i
		proc := rt.Node().Proc()
		groups = append(groups, ctbcast.NewGroup(ctbcast.Params{
			Self: ids.ID(i), Broadcaster: 0, Procs: procs, F: 1, Tail: tail, MsgCap: msgSize + 64, Mode: mode,
			Deliver: func(k uint64, _ []byte) { delivered[i] = k },
		}, ctbcast.Env{
			RT: rt, Proc: proc, Hub: msgring.NewHub(rt, proc), AckHub: tbcast.NewAckHub(rt),
			Store: swmr.NewStore(rt, proc, memIDs, 1), Signer: reg.Signer(ids.ID(i)), SumHub: ctbcast.NewSummaryHub(rt),
		}))
	}
	var tm rigTimer
	payload := make([]byte, msgSize)
	for k := uint64(1); k <= uint64(n); k++ {
		tm.sample(eng, func() { groups[0].Broadcast(payload) },
			func() bool { return delivered[0] >= k && delivered[1] >= k && delivered[2] >= k })
		eng.RunFor(5 * sim.Microsecond) // acks and summaries settle between samples
	}
	for _, g := range groups {
		g.Stop()
	}
	tm.report(m, virtName, cpuName, n)
}

// rigTBcast times one tail broadcast until the broadcaster and both
// listeners deliver.
func rigTBcast(m metrics, seed int64, n int) {
	const slots, slotCap = 64, 128
	eng, rts, _, _ := simHosts(seed, 3)
	delivered := make([]uint64, 3)
	b := tbcast.NewBroadcaster(tbcast.Config{
		RT: rts[0], Proc: rts[0].Node().Proc(), AckHub: tbcast.NewAckHub(rts[0]), Instance: 1,
		Receivers: []ids.ID{1, 2}, Slots: slots, SlotCap: slotCap,
		SelfDeliver: func(idx uint64, _ []byte) { delivered[0] = idx + 1 },
	})
	for i := 1; i < 3; i++ {
		i := i
		proc := rts[i].Node().Proc()
		tbcast.Listen(msgring.NewHub(rts[i], proc), rts[i], proc, 0, 1, slots, slotCap,
			func(idx uint64, _ []byte) { delivered[i] = idx + 1 })
	}
	var tm rigTimer
	payload := make([]byte, 64)
	for k := uint64(1); k <= uint64(n); k++ {
		tm.sample(eng, func() { b.Broadcast(payload) },
			func() bool { return delivered[0] >= k && delivered[1] >= k && delivered[2] >= k })
		eng.RunFor(5 * sim.Microsecond)
	}
	b.Stop()
	tm.report(m, "tbcast.deliver_us", "tbcast.cpu_ns_per_bcast", n)
}

// rigMsgring times one ring message from Send to the receiver's deliver.
func rigMsgring(m metrics, seed int64, n int) {
	const slots, slotCap = 64, 128
	eng, rts, _, _ := simHosts(seed, 2)
	var got uint64
	msgring.NewReceiver(msgring.NewHub(rts[1], rts[1].Node().Proc()), 0, 1, slots, slotCap,
		func(idx uint64, _ []byte) { got = idx + 1 })
	s := msgring.NewSender(rts[0], rts[0].Node().Proc(), 1, 1, slots, slotCap)
	var tm rigTimer
	payload := make([]byte, 64)
	for k := uint64(1); k <= uint64(n); k++ {
		tm.sample(eng, func() { s.Send(payload) }, func() bool { return got >= k })
		eng.RunFor(5 * sim.Microsecond)
	}
	tm.report(m, "msgring.deliver_us", "msgring.cpu_ns_per_msg", n)
}

// rigSWMR times a register Write by its owner and a Read by another host,
// each over three memory nodes.
func rigSWMR(m metrics, seed int64, n int) {
	const valueCap = 64
	eng, rts, mns, memIDs := simHosts(seed, 2)
	for _, mn := range mns {
		mn.Allocate(1, 0, swmr.RegionSize(valueCap))
	}
	wreg := swmr.NewRegister(swmr.NewStore(rts[0], rts[0].Node().Proc(), memIDs, 1), 1, valueCap)
	rreg := swmr.NewRegister(swmr.NewStore(rts[1], rts[1].Node().Proc(), memIDs, 1), 1, valueCap)
	var wr, rd rigTimer
	val := make([]byte, 48)
	for k := 1; k <= n; k++ {
		done := false
		wr.sample(eng, func() { wreg.Write(uint64(k), val, func(err error) { done = err == nil }) },
			func() bool { return done })
		done = false
		rd.sample(eng, func() { rreg.Read(func(_ swmr.ReadResult, err error) { done = err == nil }) },
			func() bool { return done })
	}
	wr.report(m, "swmr.write_us", "swmr.write_cpu_ns", n)
	rd.report(m, "swmr.read_us", "swmr.read_cpu_ns", n)
}

// hostNsPer runs fn n times and returns host nanoseconds per call.
func hostNsPer(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// rigXcrypto times the real signature and digest work (host time; the
// virtual cost the simulation charges for them is a constant of latmodel).
func rigXcrypto(m metrics, seed int64) {
	eng := sim.NewEngine(seed)
	proc := sim.NewProc(eng, "crypto")
	signer := xcrypto.NewRegistry(seed, []ids.ID{0}).Signer(0)
	msg := make([]byte, 64)
	big := make([]byte, 4096)
	var sig xcrypto.Signature
	const nSig, nSmall, nBig = 200, 20000, 2000
	m.set("xcrypto.sign_ns", hostNsPer(nSig, func() { sig = signer.Sign(proc, msg) }), nSig)
	ok := true
	verifyNs := hostNsPer(nSig, func() { ok = signer.Verify(proc, 0, msg, sig) && ok })
	if ok { // a signature that does not verify has no cost worth reporting
		m.set("xcrypto.verify_ns", verifyNs, nSig)
	}
	m.set("xcrypto.digest_ns_64B", hostNsPer(nSmall, func() { xcrypto.Digest(proc, msg) }), nSmall)
	m.set("xcrypto.digest_ns_4KiB", hostNsPer(nBig, func() { xcrypto.Digest(proc, big) }), nBig)
}

// rigWire times a pooled encode plus decode of a PREPARE-shaped frame: tag,
// view, slot, client, request number, a 64 B payload and a digest.
func rigWire(m metrics) {
	const n = 100000
	payload := make([]byte, 64)
	digest := make([]byte, xcrypto.DigestLen)
	var sink uint64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns := hostNsPer(n, func() {
		w := wire.GetWriter(160)
		w.U8(wire.ChanRing)
		w.U64(3)
		w.U64(42)
		w.U64(200)
		w.U64(7)
		w.Bytes(payload)
		w.Raw(digest)
		rd := wire.NewReader(w.Finish())
		rd.U8()
		sink += rd.U64() + rd.U64() + rd.U64() + rd.U64()
		sink += uint64(len(rd.BytesView()) + len(rd.RawView(xcrypto.DigestLen)))
		if rd.Done() != nil {
			sink = 0
		}
		wire.PutWriter(w)
	})
	runtime.ReadMemStats(&m1)
	if sink == 0 {
		return // the frame did not round-trip
	}
	m.set("wire.roundtrip_ns", ns, n)
	m.set("wire.allocs_per_msg", float64(m1.Mallocs-m0.Mallocs)/n, n)
}

// rigNettrans measures the socket transport alone on two Nets over
// loopback: a ping-pong for the round trip, then a windowed one-way stream
// for the message rate.
func rigNettrans(m metrics) error {
	const pings, batch, batches = 2000, 256, 160
	table := nettrans.NewAddrTable(nil)
	var hosts []*nettrans.Host
	var eps []transport.Endpoint
	for i := 0; i < 2; i++ {
		h := nettrans.NewHost(int64(i))
		nt, err := nettrans.Listen(h, nettrans.Options{ListenAddr: "127.0.0.1:0", Resolve: table.Resolve})
		if err != nil {
			return fmt.Errorf("nettrans rig: %w", err)
		}
		defer nt.Close()
		ep, err := nt.NewEndpoint(ids.ID(i), fmt.Sprintf("rig%d", i))
		if err != nil {
			return fmt.Errorf("nettrans rig: %w", err)
		}
		table.Set(ids.ID(i), nt.Addr())
		hosts, eps = append(hosts, h), append(eps, ep)
	}

	// Frames: 1 = ping, 2 = stream data, 3 = stream batch acknowledgement.
	msg := make([]byte, 64)
	var rtts []float64
	var sentAt time.Time
	received, ackedBatches := 0, 0
	done := make(chan struct{})
	var streamStart time.Time
	sendBatch := func() {
		data := make([]byte, 64)
		data[0] = 2
		for i := 0; i < batch; i++ {
			eps[0].Send(1, data)
		}
	}
	eps[1].SetHandler(func(_ ids.ID, p []byte) {
		switch p[0] {
		case 1:
			eps[1].Send(0, p)
		case 2:
			if received++; received%batch == 0 {
				eps[1].Send(0, []byte{3})
			}
		}
	})
	eps[0].SetHandler(func(_ ids.ID, p []byte) {
		switch p[0] {
		case 1:
			rtts = append(rtts, float64(time.Since(sentAt).Nanoseconds())/1e3)
			if len(rtts) < pings {
				sentAt = time.Now()
				eps[0].Send(1, msg)
				return
			}
			// Two batches in flight stay well inside the per-peer queue.
			streamStart = time.Now()
			sendBatch()
			sendBatch()
		case 3:
			if ackedBatches++; ackedBatches == batches {
				close(done)
			} else if ackedBatches+1 < batches {
				sendBatch()
			}
		}
	})
	for _, h := range hosts {
		h.Start()
		defer h.Stop()
	}
	msg[0] = 1
	hosts[0].Do(func() {
		sentAt = time.Now()
		eps[0].Send(1, msg)
	})
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		return fmt.Errorf("nettrans rig: ping-pong and stream did not finish within 20s")
	}
	streamed := time.Since(streamStart)
	m.set("nettrans.rtt_p50_us", percentile(rtts, 50), len(rtts))
	m.set("nettrans.rtt_p99_us", percentile(rtts, 99), len(rtts))
	m.set("nettrans.stream_kmsgs_per_s", float64(batch*batches)/streamed.Seconds()/1e3, batch*batches)
	return nil
}

// rigApps times bare Apply loops, one per application, and a KV snapshot.
func rigApps(m metrics, seed int64) {
	const n, nKeys = 20000, 1024
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = randBytes(rng, 16)
	}
	kvReqs := make([][]byte, n)
	rkvReqs := make([][]byte, n)
	orders := make([][]byte, n)
	for i := range kvReqs {
		k := keys[rng.Intn(nKeys)]
		if i%2 == 0 {
			v := randBytes(rng, 32)
			kvReqs[i], rkvReqs[i] = app.EncodeKVSet(k, v), app.EncodeRSet(k, v)
		} else {
			kvReqs[i], rkvReqs[i] = app.EncodeKVGet(k), app.EncodeRGet(k)
		}
		side := app.OpBuy
		if rng.Intn(2) == 1 {
			side = app.OpSell
		}
		orders[i] = app.EncodeOrder(side, 10_000+uint64(rng.Intn(16))-8, uint64(1+rng.Intn(10)))
	}
	loop := func(a app.StateMachine, reqs [][]byte) float64 {
		i := 0
		return hostNsPer(len(reqs), func() { a.Apply(reqs[i]); i++ })
	}
	kv := app.NewKV(0)
	m.set("app.kv_apply_ns", loop(kv, kvReqs), n)
	m.set("app.rkv_apply_ns", loop(app.NewRKV(), rkvReqs), n)
	m.set("app.orderbook_apply_ns", loop(app.NewOrderBook(), orders), n)
	const snaps = 20
	m.set("app.snapshot_ms", hostNsPer(snaps, func() { kv.Snapshot() })/1e6, snaps)
}

// rigBaselines runs the sim-flip-fast stream (64 B Flip, depth 1) through
// the unreplicated server, Mu and MinBFT: the single-node floor and the
// anchors of the paper's comparison. Bit-identical per seed.
func rigBaselines(m metrics, seed int64) {
	p50 := func(eng *sim.Engine, n int, invoke func([]byte, func([]byte, sim.Duration))) (float64, int) {
		gen := newFlipGen(64, rand.New(rand.NewSource(seed)))
		var lats []float64
		for i := 0; i < 10+n; i++ {
			o := gen.next(0)
			done, ok := false, false
			var lat sim.Duration
			invoke(o.req, func(res []byte, l sim.Duration) { done, lat, ok = true, l, gen.check(o, res) })
			if stepUntil(eng, func() bool { return done }) && ok && i >= 10 {
				lats = append(lats, lat.Micros())
			}
		}
		return percentile(lats, 50), len(lats)
	}
	u := cluster.NewUnrepl(seed, nil)
	v, n := p50(u.Eng, 1000, u.Client.Invoke)
	m.set("baselines.unrepl_p50_us", v, n)
	mu := cluster.NewMu(cluster.MuOptions{Seed: seed})
	v, n = p50(mu.Eng, 1000, mu.Client.Invoke)
	mu.Stop()
	m.set("baselines.mu_p50_us", v, n)
	mb := cluster.NewMinBFT(cluster.MinBFTOptions{Seed: seed, Mode: minbft.HMACClients})
	v, n = p50(mb.Eng, 200, mb.Client.Invoke)
	m.set("baselines.minbft_p50_us", v, n)
}

// rigMetrics measures every rig. A rig that cannot run leaves its metrics
// out and says so; it does not fail the workloads being traced.
func rigMetrics(seed int64) metrics {
	m := metrics{}
	rigCTBcast(m, seed, ctbcast.FastOnly, 400, "ctbcast.fast_us", "ctbcast.fast_cpu_ns")
	rigCTBcast(m, seed, ctbcast.SlowOnly, 60, "ctbcast.slow_us", "ctbcast.slow_cpu_ns")
	rigTBcast(m, seed, 1000)
	rigMsgring(m, seed, 2000)
	rigSWMR(m, seed, 300)
	rigXcrypto(m, seed)
	rigWire(m)
	if err := rigNettrans(m); err != nil {
		fmt.Printf("  %v\n", err)
	}
	rigApps(m, seed)
	rigBaselines(m, seed)
	return m
}
