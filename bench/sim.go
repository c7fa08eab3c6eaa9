package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/memnode"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// This file runs the sim-* workloads: a deployment on the simulated fabric
// driven closed-loop by one goroutine, sized by operation count. Latency and
// throughput are virtual time and a pure function of the seed, so one run
// (a "repetition") is repeated back to back until -seconds of wall time are
// used: every repetition must reproduce the first one's virtual-time numbers
// exactly, and the host-time metrics (CPU, allocations, heap, set-up) are
// reported as medians over the repetitions.

// simTarget is an assembled deployment as the closed-loop driver sees it.
type simTarget struct {
	eng       *sim.Engine
	clients   int
	clientIDs []int
	invoke    func(client int, req []byte, done func(res []byte, lat sim.Duration)) error
	stop      func()

	memNode *memnode.Node
	groups  [][]*consensus.Replica
	apps    [][]app.StateMachine
	reads   func() (fast, fallbacks uint64) // nil without a fast read path
}

// simDef describes one sim workload.
type simDef struct {
	ops   int // measured operations, all clients together
	warm  int // warm-up operations per client (checked, not measured)
	depth int
	// build assembles the deployment and its request generator. With a
	// non-nil ctx the fabric and the applications are the traced wrappers.
	build func(seed int64, ctx *traceCtx) (*simTarget, generator)
}

// simFabric returns the traced simulated fabric a deployment is injected
// with: the same engine and network the layers build for a nil fabric.
func simFabric(seed int64, ctx *traceCtx) transport.Fabric {
	eng := sim.NewEngine(seed)
	return &tracedFabric{Fabric: simnet.AsFabric(simnet.New(eng, simnet.RDMAOptions())), ctx: ctx}
}

func flipDef(ops int, slow bool) simDef {
	return simDef{ops: ops, warm: 20, depth: 1, build: func(seed int64, ctx *traceCtx) (*simTarget, generator) {
		opts := cluster.Options{Seed: seed}
		if slow {
			opts.DisableFastPath = true
			opts.CTBMode = ctbcast.SlowOnly
		}
		if ctx != nil {
			opts.Fabric = simFabric(seed, ctx)
			opts.NewApp = func() app.StateMachine { return tracedFlip{app.NewFlip(), ctx} }
		}
		u := cluster.NewUBFT(opts)
		t := &simTarget{
			eng: u.Eng, clients: 1, clientIDs: []int{int(u.ClientIDs[0])}, stop: u.Stop,
			memNode: u.MemNodes[0], groups: [][]*consensus.Replica{u.Replicas}, apps: [][]app.StateMachine{u.Apps},
			invoke: func(_ int, req []byte, done func([]byte, sim.Duration)) error {
				u.Clients[0].Invoke(req, done)
				return nil
			},
		}
		return t, newFlipGen(64, rand.New(rand.NewSource(seed)))
	}}
}

func shardTarget(d *shard.Deployment) *simTarget {
	t := &simTarget{
		eng: d.Eng, clients: len(d.Clients), stop: d.Stop, memNode: d.MemNodes[0],
		invoke: func(c int, req []byte, done func([]byte, sim.Duration)) error {
			_, err := d.Clients[c].Invoke(req, done)
			return err
		},
		reads: func() (fast, fb uint64) {
			for _, c := range d.Clients {
				f, b := c.ReadStats()
				fast, fb = fast+f, fb+b
			}
			return fast, fb
		},
	}
	for _, id := range d.ClientIDs {
		t.clientIDs = append(t.clientIDs, int(id))
	}
	for _, g := range d.Groups {
		t.groups = append(t.groups, g.Replicas)
		t.apps = append(t.apps, g.Apps)
	}
	return t
}

func read90Def(ops int) simDef {
	return simDef{ops: ops, warm: 32, depth: 4, build: func(seed int64, ctx *traceCtx) (*simTarget, generator) {
		opts := shard.Options{Seed: seed, Shards: 2, NumClients: 2, FastReads: true}
		if ctx != nil {
			opts.Group.Fabric = simFabric(seed, ctx)
			opts.NewApp = func(int) app.StateMachine { return tracedKV{app.NewKV(0), ctx} }
		}
		gen := newKVGen(rand.New(rand.NewSource(seed)), 2, 4096, 16, 32, 0.90, false)
		return shardTarget(shard.New(opts)), gen
	}}
}

func shard4Def(ops int) simDef {
	return simDef{ops: ops, warm: 16, depth: 4, build: func(seed int64, ctx *traceCtx) (*simTarget, generator) {
		opts := shard.Options{Seed: seed, Shards: 4, NumClients: 4,
			NewApp: func(int) app.StateMachine { return app.NewRKV() }}
		if ctx != nil {
			opts.Group.Fabric = simFabric(seed, ctx)
			opts.NewApp = func(int) app.StateMachine { return tracedRKV{app.NewRKV(), ctx} }
		}
		return shardTarget(shard.New(opts)), newRKVTxnGen(seed, 4, 0.10)
	}}
}

// simDefs sizes the four sim workloads so that one repetition takes between
// one and two seconds of host time on this box: a run of -seconds then holds
// enough repetitions for the medians of the host-side metrics to mean
// something. scale divides the operation counts (the self-test runs small).
func simDefs(scale int) map[string]simDef {
	return map[string]simDef{
		"sim-flip-fast":  flipDef(10000/scale, false),
		"sim-flip-slow":  flipDef(1000/scale, true),
		"sim-kv-read90":  read90Def(40000 / scale),
		"sim-shard4-txn": shard4Def(5000 / scale),
	}
}

// driveStats is what one closed-loop drive observed.
type driveStats struct {
	lat       [numClasses][]float64 // per class, microseconds
	completed int
	failed    int // answer check failed, empty result, or refused at submit
	aborted   int // 2PC writes that resolved as aborted (a correct outcome)
	elapsed   sim.Duration
}

func (s *driveStats) all() []float64 {
	var out []float64
	for _, l := range s.lat {
		out = append(out, l...)
	}
	return out
}

// maxOpWait bounds the virtual time one drive may take per operation: far
// beyond any sane latency, so hitting it means the deployment is stuck.
const maxOpWait = 5 * sim.Millisecond

// drive keeps depth requests in flight per client until total operations
// were issued, then steps the engine until all completed or the virtual
// deadline passes. Operations still in flight then count as failed by the
// caller (total - completed).
func drive(t *simTarget, gen generator, depth, total int, ctx *traceCtx, reqBase uint64) *driveStats {
	st := &driveStats{}

	start := t.eng.Now()
	last := start
	perClient := total / t.clients
	for c := 0; c < t.clients; c++ {
		c := c
		issued, inFlight := 0, 0
		var fill func()
		fill = func() {
			for inFlight < depth && issued < perClient {
				issued++
				inFlight++
				o := gen.next(c)
				root := ctx.begin(reqBase+uint64(c*perClient+issued), t.clientIDs[c], len(o.req), t.eng.Now())
				err := t.invoke(c, o.req, func(res []byte, lat sim.Duration) {
					inFlight--
					st.completed++
					last = t.eng.Now()
					root.done()
					if !gen.check(o, res) {
						st.failed++
					}
					if aborted(o, res) {
						st.aborted++
					}
					st.lat[o.class] = append(st.lat[o.class], lat.Micros())
					fill()
				})
				root.submitted()
				if err != nil {
					// Refused at submit: done never runs.
					inFlight--
					st.completed++
					st.failed++
				}
			}
		}
		fill()
	}
	want := perClient * t.clients
	deadline := start.Add(sim.Duration(want) * maxOpWait)
	for st.completed < want && t.eng.Now() < deadline {
		if !t.eng.Step() {
			break
		}
	}
	st.elapsed = last.Sub(start)
	return st
}

// snapshotsAgree reports whether the replicas of every group hold byte-equal
// application state. Followers trail the leader by the messages still in
// flight when the last reply reached its client, so the engine first runs a
// little further with no client load.
func snapshotsAgree(t *simTarget) bool {
	t.eng.RunFor(2 * sim.Millisecond)
	for _, apps := range t.apps {
		first := apps[0].Snapshot()
		for _, a := range apps[1:] {
			if !bytes.Equal(first, a.Snapshot()) {
				return false
			}
		}
	}
	return true
}

// simRep is one repetition's outcome: the e2e metrics but setup_s, the
// set-up samples, the workload-bound per-layer metrics (traced repetitions
// only) and the failure counts.
type simRep struct {
	e2e, layer        metrics
	setups            []float64 // seconds
	attempted, failed int
	cpuUsPerOp        float64
	tr                *tracer
}

// simSetups is how many times a repetition sets the deployment up.
const simSetups = 8

// runSimRep builds the deployment, warms it up, drives the measured
// operations and checks the answers.
func runSimRep(def simDef, seed int64, traced bool) *simRep {
	rep := &simRep{e2e: metrics{}, layer: metrics{}}
	var ctx *traceCtx
	if traced {
		rep.tr = newTracer()
		ctx = rep.tr.newCtx()
	}

	// Set-up is a few milliseconds of allocation here, so it is sampled
	// simSetups times per repetition: all but the last deployment are
	// stopped again at once. Each sample starts from a collected heap, as a
	// fresh process would, not from the garbage of what ran before it.
	for i := 1; i < simSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		t, gen := def.build(seed, nil)
		drive(t, gen, def.depth, def.warm*t.clients, nil, 0)
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
		t.stop()
	}
	runtime.GC()
	t0 := time.Now()
	t, gen := def.build(seed, ctx)
	defer t.stop()
	buildTime := time.Since(t0)
	warm := drive(t, gen, def.depth, def.warm*t.clients, ctx, 0)
	rep.setups = append(rep.setups, time.Since(t0).Seconds())

	if traced {
		rep.tr.resetSums()
	}
	decided0, events0 := decidedSlots(t), t.eng.Executed()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := cpuTime()
	st := drive(t, gen, def.depth, def.ops, ctx, 1<<32)
	cpu1, _ := cpuTime()
	runtime.ReadMemStats(&m1)
	events := float64(t.eng.Executed() - events0)
	var sums *traceSums
	if traced {
		sums = rep.tr.totals()
	}

	attempted := def.ops / t.clients * t.clients
	rep.attempted = attempted + def.warm*t.clients
	rep.failed = warm.failed + (def.warm*t.clients - warm.completed) + st.failed + (attempted - st.completed)
	if !snapshotsAgree(t) {
		// Diverged replicas invalidate every answer of the run.
		rep.failed = rep.attempted
	}

	ops := float64(st.completed)
	all := st.all()
	cpuNs := float64(cpu1 - cpu0)
	rep.cpuUsPerOp = ratio(cpuNs/1e3, ops)
	e := rep.e2e
	e.set("latency_p50_us", percentile(all, 50), len(all))
	e.set("latency_p95_us", percentile(all, 95), len(all))
	e.set("throughput_kops", ratio(ops, float64(st.elapsed)/1e6), st.completed)
	e.set("allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), ops), st.completed)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	e.set("heap_live_mib", float64(m1.HeapAlloc)/(1<<20), 0)
	runtime.KeepAlive(t)

	if !traced {
		return rep
	}
	l := rep.layer
	transportMetrics(l, sums, st.completed, cpuNs)
	l.set("sim.events_per_op", ratio(events, ops), st.completed)
	l.set("sim.ns_per_event", ratio(cpuNs, events), int(events))
	l.set("consensus.latency_p99_us", percentile(all, 99), len(all))
	l.set("cluster.build_ms", float64(buildTime)/1e6, 0)
	l.set("swmr.disagg_kib", float64(t.memNode.AllocatedBytes)/1024, 0)

	var fast, slow, summaries, late uint64
	views := 0
	for _, g := range t.groups {
		maxView := 0
		for _, r := range g {
			f, s, sm := r.GroupStats()
			fast, slow, summaries = fast+f, slow+s, summaries+sm
			late += r.LateProposals()
			if v := int(r.View()); v > maxView {
				maxView = v
			}
		}
		views += maxView
	}
	decided := float64(decidedSlots(t) - decided0)
	ordered := len(st.lat[classWrite]) + len(st.lat[classTxn])
	if t.reads == nil {
		ordered = st.completed
	}
	l.set("ctbcast.slow_share", ratio(float64(slow), float64(fast+slow)), int(fast+slow))
	l.set("ctbcast.summaries_per_kop", ratio(float64(summaries)*1000, ops), st.completed)
	l.set("consensus.ops_per_slot", ratio(float64(ordered), decided), int(decided))
	l.set("consensus.view_changes", float64(views), 0)
	l.set("consensus.late_proposals", float64(late), 0)
	l.set("consensus.local_mib", float64(t.groups[0][0].LocalBytes())/(1<<20), 0)
	if t.reads != nil {
		fastReads, fallbacks := t.reads()
		reads := len(st.lat[classRead])
		l.set("consensus.read_p50_us", percentile(st.lat[classRead], 50), reads)
		l.set("consensus.write_p50_us", percentile(st.lat[classWrite], 50), len(st.lat[classWrite]))
		l.set("consensus.read_fast_share", ratio(float64(fastReads), float64(fastReads+fallbacks)), int(fastReads+fallbacks))
		l.set("consensus.read_fallbacks", float64(fallbacks), 0)
	}
	if len(t.groups) > 1 {
		single := append(append([]float64{}, st.lat[classWrite]...), st.lat[classRead]...)
		mgets, txns := st.lat[classMGet], st.lat[classTxn]
		l.set("shard.single_p50_us", percentile(single, 50), len(single))
		l.set("shard.cross_share", ratio(float64(len(mgets)+len(txns)), ops), st.completed)
		l.set("shard.decided_per_op", ratio(decided, ops), st.completed)
		if len(mgets) > 0 {
			l.set("shard.mget_p50_us", percentile(mgets, 50), len(mgets))
		}
		if len(txns) > 0 {
			l.set("shard.txn_p50_us", percentile(txns, 50), len(txns))
			l.set("shard.aborted_share", ratio(float64(st.aborted), float64(len(txns))), len(txns))
		}
	}
	return rep
}

// decidedSlots sums the slots decided across the deployment's groups (the
// furthest replica of each).
func decidedSlots(t *simTarget) int {
	total := 0
	for _, g := range t.groups {
		best := 0
		for _, r := range g {
			if n := r.DecidedCount(); n > best {
				best = n
			}
		}
		total += best
	}
	return total
}

// medianOf reduces repetitions to one metrics map: per name, the median of
// the repetitions' values, with the sample count of the first repetition (or
// the repetition count for a metric that is a single reading per run).
func medianOf(reps []metrics) metrics {
	out := metrics{}
	for name, first := range reps[0] {
		vals := make([]float64, 0, len(reps))
		for _, r := range reps {
			vals = append(vals, r[name].V)
		}
		n := first.N
		if n == 0 {
			n = len(reps)
		}
		out.set(name, median(vals), n)
	}
	return out
}

// repeatSim runs repetitions of def until budget is used (at least one) and
// returns them. A repetition whose virtual-time metrics differ from the
// first one's is a determinism failure and fails all its operations.
func repeatSim(def simDef, seed int64, traced bool, budget time.Duration) []*simRep {
	var reps []*simRep
	start := time.Now()
	for {
		rep := runSimRep(def, seed, traced)
		if len(reps) > 0 {
			for _, k := range virtualKeys {
				if rep.e2e[k] != reps[0].e2e[k] {
					fmt.Printf("  repetition %d: %s = %v differs from the first repetition's %v\n",
						len(reps)+1, k, rep.e2e[k].V, reps[0].e2e[k].V)
					rep.failed = rep.attempted
				}
			}
			rep.tr = nil // only the first repetition's spans are written out
		}
		reps = append(reps, rep)
		if time.Since(start) >= budget {
			return reps
		}
	}
}

// runSim runs one sim workload. Untraced it returns the end-to-end metrics;
// traced it returns the per-layer metrics, from traced repetitions compared
// with untraced ones for the tracing overhead.
func runSim(name string, cfg runCfg) (*result, error) {
	def := simDefs(1)[name]
	res := &result{workload: name, traced: cfg.traced, metrics: metrics{}}
	sum := func(reps []*simRep) (e2e, layer []metrics, setups []float64) {
		for _, r := range reps {
			res.attempted += r.attempted
			res.failed += r.failed
			e2e, layer = append(e2e, r.e2e), append(layer, r.layer)
			setups = append(setups, r.setups...)
		}
		return e2e, layer, setups
	}
	if !cfg.traced {
		e2e, _, setups := sum(repeatSim(def, cfg.seed, false, cfg.window))
		res.metrics = medianOf(e2e)
		// The fastest set-up, not the median: the host only ever adds time
		// to these few milliseconds, and it adds enough to move the median of
		// ten runs' medians by 36% between two sets of runs of the same code.
		res.metrics.set("setup_s", slices.Min(setups), len(setups))
		return res, nil
	}

	plain := repeatSim(def, cfg.seed, false, cfg.window/3)
	traced := repeatSim(def, cfg.seed, true, cfg.window/3)
	sum(plain)
	_, layer, _ := sum(traced)
	res.metrics = medianOf(layer)
	cpuOf := func(reps []*simRep) float64 {
		var vals []float64
		for _, r := range reps {
			vals = append(vals, r.cpuUsPerOp)
		}
		return median(vals)
	}
	base, with := cpuOf(plain), cpuOf(traced)
	res.metrics.set("cluster.cpu_us_per_op", base, len(plain))
	res.metrics.set("trace.overhead_share", ratio(with-base, base), len(traced))

	path, err := traced[0].tr.write(cfg.outDir, name, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.traceFile = path
	// Fig 9's SMR share: end-to-end minus the unreplicated RPC minus the
	// broadcast underneath. Only the depth-1 Flip streams match the rigs.
	below := map[string]string{"sim-flip-fast": "ctbcast.fast_us", "sim-flip-slow": "ctbcast.slow_us"}
	if bcast, ok := below[name]; ok {
		self := plain[0].e2e["latency_p50_us"].V - cfg.rigs["baselines.unrepl_p50_us"].V - cfg.rigs[bcast].V
		res.metrics.set("consensus.smr_self_us", self, 0)
	}
	return res, nil
}
