package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/swmr"
	"repro/internal/tbcast"
	"repro/internal/trusted"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file benchmarks the three non-equivocation mechanisms of Figure 10
// in isolation (one sender, two receivers, §7.4): CTBcast's fast path,
// CTBcast's slow path, and the SGX trusted-counter approach.

// ctbRig is a standalone CTBcast group: broadcaster 0, receivers 1 and 2,
// three memory nodes.
type ctbRig struct {
	eng       *sim.Engine
	group     *ctbcast.Group
	groups    []*ctbcast.Group
	delivered []uint64 // per member: highest k delivered
}

func newCTBRig(seed int64, mode ctbcast.PathMode, tail, msgCap int) *ctbRig {
	rig := &ctbRig{eng: sim.NewEngine(seed)}
	net := simnet.New(rig.eng, simnet.RDMAOptions())
	procs := []ids.ID{0, 1, 2}
	var memIDs []ids.ID
	var mns []*memnode.Node
	for i := 0; i < 3; i++ {
		id := ids.ID(100 + i)
		memIDs = append(memIDs, id)
		rt := router.New(net.AddNode(id, fmt.Sprintf("mem%d", i)))
		mns = append(mns, memnode.New(rt))
	}
	ctbcast.AllocateRegions(mns, procs, tail, 0)
	reg := xcrypto.NewRegistry(seed+3, procs)
	rig.delivered = make([]uint64, 3)
	for i := 0; i < 3; i++ {
		i := i
		rt := router.New(net.AddNode(ids.ID(i), fmt.Sprintf("p%d", i)))
		proc := rt.Node().Proc()
		env := ctbcast.Env{
			RT: rt, Proc: proc,
			Hub:    msgring.NewHub(rt, proc),
			AckHub: tbcast.NewAckHub(rt),
			Store:  swmr.NewStore(rt, proc, memIDs, 1),
			Signer: reg.Signer(ids.ID(i)),
			SumHub: ctbcast.NewSummaryHub(rt),
		}
		g := ctbcast.NewGroup(ctbcast.Params{
			Self:         ids.ID(i),
			Broadcaster:  0,
			Procs:        procs,
			F:            1,
			Tail:         tail,
			MsgCap:       msgCap,
			Mode:         mode,
			InstanceBase: 0,
			RegionBase:   0,
			Deliver:      func(k uint64, _ []byte) { rig.delivered[i] = k },
		}, env)
		rig.groups = append(rig.groups, g)
		if i == 0 {
			rig.group = g
		}
	}
	return rig
}

func (rig *ctbRig) stop() {
	for _, g := range rig.groups {
		g.Stop()
	}
}

// NonEquivCTB measures the median latency of one CTBcast broadcast (until
// ALL members deliver) for the given path and message size.
func NonEquivCTB(seed int64, mode ctbcast.PathMode, msgSize, samples int) *Recorder {
	tail := 32
	rig := newCTBRig(seed, mode, tail, msgSize+64)
	defer rig.stop()
	rec := NewRecorder(samples)
	payload := make([]byte, msgSize)
	for i := 0; i < samples; i++ {
		k := uint64(i + 1)
		start := rig.eng.Now()
		rig.group.Broadcast(payload)
		all := func() bool { return rig.delivered[0] >= k && rig.delivered[1] >= k && rig.delivered[2] >= k }
		if cluster.SyncWait(rig.eng, maxWait, all) == nil {
			rec.Add(rig.eng.Now().Sub(start))
		}
		// Drain background work (acks, summaries) between samples.
		rig.eng.RunFor(5 * sim.Microsecond)
	}
	return rec
}

// NonEquivSGX measures the SGX trusted-counter mechanism (§7.4): the
// sender binds the message to its enclave counter, broadcasts, and each
// receiver verifies the binding in its own enclave.
func NonEquivSGX(seed int64, msgSize, samples int) *Recorder {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng, simnet.RDMAOptions())
	secret := trusted.NewSecret(seed)
	srt := router.New(net.AddNode(0, "sender"))
	sender := trusted.NewUSIG(0, secret, srt.Node().Proc())

	type recvSide struct {
		rt       *router.Router
		usig     *trusted.USIG
		verified uint64
	}
	recvs := make([]*recvSide, 2)
	for i := range recvs {
		i := i
		rt := router.New(net.AddNode(ids.ID(i+1), fmt.Sprintf("r%d", i)))
		rs := &recvSide{rt: rt, usig: trusted.NewUSIG(ids.ID(i+1), secret, rt.Node().Proc())}
		rt.Register(router.ChanBaseline, func(from ids.ID, payload []byte) {
			rd := wire.NewReader(payload)
			seq := rd.U64()
			msg := rd.Bytes()
			ui := trusted.DecodeUI(rd)
			if rd.Done() != nil {
				return
			}
			if rs.usig.VerifyUI(from, msg, ui) {
				// The result is available once the enclave call returns:
				// observe it after the charged enclave latency.
				rt.Node().Proc().Deliver(func() { rs.verified = seq })
			}
		})
		recvs[i] = rs
	}

	rec := NewRecorder(samples)
	payload := make([]byte, msgSize)
	for i := 0; i < samples; i++ {
		seq := uint64(i + 1)
		start := eng.Now()
		ui := sender.CreateUI(payload)
		w := wire.NewWriter(64 + len(payload))
		w.U64(seq)
		w.Bytes(payload)
		trusted.EncodeUI(w, ui)
		frame := w.Finish()
		srt.Send(1, router.ChanBaseline, frame)
		srt.Send(2, router.ChanBaseline, frame)
		both := func() bool { return recvs[0].verified >= seq && recvs[1].verified >= seq }
		if cluster.SyncWait(eng, maxWait, both) == nil {
			rec.Add(eng.Now().Sub(start))
		}
	}
	return rec
}
