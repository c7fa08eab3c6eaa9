package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wallclock"
)

// This file runs the net-* workloads: the KV service on real loopback TCP,
// measured with the wall clock over a fixed window. Untraced, the servers
// are a fleet of freshly built ubft-node OS processes (3 replicas and 2
// memory nodes) and only the client lives in the harness. The traced run
// also hosts all six members inside the harness, one nettrans host and
// listener each exactly as wallclock.RunNode assembles them, so the fabric
// wrapper sees both ends of every link.

const (
	netWarmOps = 200 // warm-up operations before the clock of a window starts
	netFleets  = 5   // fleets per untraced run; every metric is their median
	// drainTimeout bounds a phase beyond the time it is meant to submit for:
	// operations still in flight after it mean the deployment is stuck.
	drainTimeout = 30 * time.Second
)

// netDepth is the client's pipeline depth per net workload.
var netDepth = map[string]int{"net-kv-d1": 1, "net-kv-d8": 8}

// nodeConfig is the deployment shape every process of a net workload is
// started with: 3 replicas (f=1), 2 memory nodes (fm=1, lean pool), 1 client.
func nodeConfig(seed int64) wallclock.NodeConfig {
	return wallclock.NodeConfig{App: "kv", Seed: seed, F: 1, Fm: 1, MemNodes: 2, Clients: 1}
}

// buildNode compiles cmd/ubft-node into dir and returns the binary's path.
func buildNode(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "ubft-node"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/ubft-node")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ubft-node: %v\n%s", err, out)
	}
	return bin, nil
}

// member is one cluster member hosted in the harness process.
type member struct {
	host *nettrans.Host
	net  *nettrans.Net
	m    *cluster.Member
}

// join assembles one member on its own host loop and listener, as
// wallclock.RunNode does. With a non-nil ctx the member's endpoint is traced.
func join(opts cluster.Options, hostSeed int64, listen string, resolve func(ids.ID) (string, bool),
	spec cluster.MemberSpec, ctx *traceCtx) (*member, error) {
	h := nettrans.NewHost(hostSeed)
	nt, err := nettrans.Listen(h, nettrans.Options{ListenAddr: listen, Resolve: resolve})
	if err != nil {
		return nil, err
	}
	var fab transport.Fabric = nt
	if ctx != nil {
		fab = &tracedFabric{Fabric: nt, ctx: ctx}
	}
	m, err := cluster.NewMember(opts, fab, spec)
	if err != nil {
		nt.Close()
		return nil, err
	}
	h.Start()
	return &member{host: h, net: nt, m: m}, nil
}

func (mb *member) stop() {
	mb.host.Do(mb.m.Stop)
	mb.host.Stop()
	mb.net.Close()
}

// deployment is a running KV service plus the harness-hosted client.
type deployment struct {
	client   *member
	ctx      *traceCtx // the client's trace context (nil untraced)
	fleet    *wallclock.LocalCluster
	servers  []*member // harness-hosted replicas and memory nodes (traced runs)
	launchMs float64   // fleet launch until every listener accepts
	stopped  bool
}

// stop tears everything down and reaps the fleet. Idempotent.
func (d *deployment) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.client.stop()
	for _, s := range d.servers {
		s.stop()
	}
	if d.fleet != nil {
		d.fleet.Stop()
	}
}

// deployFleet launches the ubft-node fleet and joins the client to it.
func deployFleet(nodeBin string, seed int64) (*deployment, error) {
	cfg := nodeConfig(seed)
	opts, err := cfg.Options()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	lc, err := wallclock.LaunchLocal([]string{nodeBin}, cfg, "")
	if err != nil {
		return nil, fmt.Errorf("launching the fleet (a port clash or a node that died at start shows here): %w", err)
	}
	d := &deployment{fleet: lc, launchMs: float64(time.Since(t0)) / 1e6}
	d.client, err = join(opts, seed+1, lc.ClientAddr, nettrans.NewAddrTable(lc.Table).Resolve,
		cluster.MemberSpec{Role: cluster.RoleClient}, nil)
	if err != nil {
		lc.Stop()
		return nil, fmt.Errorf("joining the client: %w", err)
	}
	return d, nil
}

// deployInProcess hosts all six members in the harness. With a tracer every
// member records into its own context and handler spans are matched to the
// Send spans that carried their messages.
func deployInProcess(seed int64, tr *tracer) (*deployment, error) {
	cfg := nodeConfig(seed)
	opts, err := cfg.Options()
	if err != nil {
		return nil, err
	}
	table := nettrans.NewAddrTable(nil)
	d := &deployment{}
	add := func(spec cluster.MemberSpec, hostSeed int64) (*member, error) {
		o := opts
		var ctx *traceCtx
		if tr != nil {
			ctx = tr.newCtx()
			o.NewApp = func() app.StateMachine { return tracedKV{app.NewKV(0), ctx} }
		}
		mb, err := join(o, hostSeed, "127.0.0.1:0", table.Resolve, spec, ctx)
		if err != nil {
			d.stopServers()
			return nil, err
		}
		table.Set(mb.m.ID, mb.net.Addr())
		if spec.Role == cluster.RoleClient {
			d.ctx = ctx
		}
		return mb, nil
	}
	for i := 0; i < 2*cfg.F+1; i++ {
		mb, err := add(cluster.MemberSpec{Role: cluster.RoleReplica, Index: i}, seed)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, mb)
	}
	for j := 0; j < cfg.MemNodes; j++ {
		mb, err := add(cluster.MemberSpec{Role: cluster.RoleMemNode, Index: j}, seed)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, mb)
	}
	if d.client, err = add(cluster.MemberSpec{Role: cluster.RoleClient}, seed+1); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *deployment) stopServers() {
	for _, s := range d.servers {
		s.stop()
	}
	d.servers = nil
}

// pump is the closed-loop client: depth requests in flight, the next one
// submitted when one completes. All its state lives on the client's host
// loop; the harness goroutine talks to it through host.Do and waits on idle.
type pump struct {
	d     *deployment
	gen   generator
	depth int

	outstanding int
	reqID       uint64
	attempted   int
	failed      int

	// The phase now running: issue yields the next operation (false: stop
	// submitting), record sees every completion, idle closes at quiescence.
	issue  func() (op, bool)
	record func(o op, start time.Time)
	idle   chan struct{}
}

func (p *pump) submit() {
	o, more := p.issue()
	if !more {
		if p.outstanding == 0 && p.idle != nil {
			close(p.idle)
			p.idle = nil
		}
		return
	}
	p.outstanding++
	p.attempted++
	p.reqID++
	start := time.Now()
	cm := p.d.client.m
	root := p.d.ctx.begin(p.reqID, int(cm.ID), len(o.req), cm.Eng.Now())
	cm.Client.Invoke(o.req, func(res []byte, _ sim.Duration) {
		p.outstanding--
		root.done()
		if len(res) == 0 || !p.gen.check(o, res) {
			p.failed++
		}
		p.record(o, start)
		p.submit()
	})
	root.submitted()
}

// phase runs one closed-loop phase to quiescence: depth submissions are
// started, every completion submits again until issue stops yielding, and
// the phase ends when the operations then still in flight have drained. It
// must do so within limit.
func (p *pump) phase(what string, limit time.Duration, issue func() (op, bool), record func(op, time.Time)) error {
	idle := make(chan struct{})
	p.d.client.host.Do(func() {
		p.issue, p.record, p.idle = issue, record, idle
		for i := 0; i < p.depth; i++ {
			p.submit()
		}
	})
	select {
	case <-idle:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("%s did not finish within %v%s", what, limit, p.d.diagnose())
	}
}

// diagnose names fleet processes that no longer accept connections.
func (d *deployment) diagnose() string {
	if d.fleet == nil {
		return ""
	}
	out := ""
	for _, id := range append(append([]ids.ID{}, d.fleet.ReplicaIDs...), d.fleet.MemNodeIDs...) {
		addr := d.fleet.Table[id]
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			out += fmt.Sprintf("; node %d (%s) is not accepting connections: fleet process dead?", int(id), addr)
			continue
		}
		c.Close()
	}
	return out
}

// warm completes n operations (checked, not measured).
func (p *pump) warm(n int) error {
	issued := 0
	return p.phase("warm-up", drainTimeout, func() (op, bool) {
		if issued == n {
			return op{}, false
		}
		issued++
		return p.gen.next(0), true
	}, func(op, time.Time) {})
}

// window is what one measured window observed.
type window struct {
	lats     []float64 // latency of every operation completed inside it, microseconds
	elapsed  time.Duration
	selfCPU  time.Duration
	mallocs  uint64
	netStats nettrans.Stats // the client Net's counters over the window
}

// measure opens a window of the given length: operations completing inside
// it are samples; at its end submission stops and the operations in flight
// drain (checked, not sampled).
func (p *pump) measure(length time.Duration) (*window, error) {
	w := &window{}
	var m0, m1 runtime.MemStats
	closed := false
	var opened time.Time
	stats0 := p.d.client.net.Stats()
	runtime.ReadMemStats(&m0)
	cpu0, _ := cpuTime()
	opened = time.Now()

	endT := time.AfterFunc(length, func() {
		p.d.client.host.Do(func() {
			closed = true
			w.elapsed = time.Since(opened)
			cpu1, _ := cpuTime()
			w.selfCPU = cpu1 - cpu0
			runtime.ReadMemStats(&m1)
			w.mallocs = m1.Mallocs - m0.Mallocs
		})
	})
	defer endT.Stop()

	err := p.phase("the measured window and its drain", length+drainTimeout, func() (op, bool) {
		if closed {
			return op{}, false
		}
		return p.gen.next(0), true
	}, func(_ op, start time.Time) {
		if !closed {
			w.lats = append(w.lats, float64(time.Since(start).Nanoseconds())/1e3)
		}
	})
	if err != nil {
		return nil, err
	}
	stats1 := p.d.client.net.Stats()
	w.netStats = nettrans.Stats{
		MsgsSent:  stats1.MsgsSent - stats0.MsgsSent,
		Dropped:   stats1.Dropped - stats0.Dropped,
		Redials:   stats1.Redials - stats0.Redials,
		QueueFull: stats1.QueueFull - stats0.QueueFull,
	}
	return w, nil
}

// readBack reads every key once the drain is over: each must return its
// last acknowledged write.
func (p *pump) readBack() error {
	ops := p.gen.(*kvGen).readBack()
	return p.phase("the read-back", drainTimeout, func() (op, bool) {
		if len(ops) == 0 {
			return op{}, false
		}
		o := ops[0]
		ops = ops[1:]
		return o, true
	}, func(op, time.Time) {})
}

// setUp deploys the service, joins the client and warms up. The returned
// duration is the workload's set-up time.
func setUp(depth int, seed int64, deploy func() (*deployment, error)) (*deployment, *pump, time.Duration, error) {
	t0 := time.Now()
	d, err := deploy()
	if err != nil {
		return nil, nil, 0, err
	}
	// Depth-1 answers are replayed against a bare reference KV; pipelined
	// ones are judged by versions (see kvGen).
	gen := newKVGen(rand.New(rand.NewSource(seed)), 1, 64, 16, 64, 0.5, depth == 1)
	p := &pump{d: d, gen: gen, depth: depth}
	if err := p.warm(netWarmOps); err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, p, time.Since(t0), nil
}

// memNodeKiB is what one memory node of the deployment allocates: the same
// cluster.NewMember call a ubft-node memory process makes, on a throwaway
// fabric, because a node process exposes no accessor.
func memNodeKiB(seed int64) (float64, error) {
	opts, err := nodeConfig(seed).Options()
	if err != nil {
		return 0, err
	}
	fab := simnet.AsFabric(simnet.New(sim.NewEngine(seed), simnet.RDMAOptions()))
	m, err := cluster.NewMember(opts, fab, cluster.MemberSpec{Role: cluster.RoleMemNode})
	if err != nil {
		return 0, err
	}
	return float64(m.MemNode.AllocatedBytes) / 1024, nil
}

// fleetRun is one fleet's life: launched, joined, warmed up, measured over
// one window, read back and stopped.
type fleetRun struct {
	w        *window
	p        *pump
	setupS   float64 // launch until the warm-up completed
	launchMs float64
	fleetCPU time.Duration // the fleet processes' lifetime CPU
	heapMiB  float64       // harness heap after a forced collection, fleet still up
}

// runFleet measures one window on a fresh fleet of ubft-node processes.
func runFleet(nodeBin string, depth int, seed int64, length time.Duration) (*fleetRun, error) {
	// Children reaped so far are earlier fleets; this one's CPU is the
	// difference once it is stopped and reaped.
	_, childCPU0 := cpuTime()
	d, p, took, err := setUp(depth, seed, func() (*deployment, error) { return deployFleet(nodeBin, seed) })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	fr := &fleetRun{p: p, setupS: took.Seconds(), launchMs: d.launchMs}
	if fr.w, err = p.measure(length); err != nil {
		return nil, err
	}
	if err := p.readBack(); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fr.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	d.stop()
	_, childCPU1 := cpuTime()
	fr.fleetCPU = childCPU1 - childCPU0
	return fr, nil
}

// cpuUsPerOp is the CPU one operation costs: the harness's share over the
// window, plus the fleet's lifetime CPU over every operation it served
// (warm-up, drain and read-back included; reaped children report only a
// lifetime total).
func (fr *fleetRun) cpuUsPerOp() float64 {
	return ratio(float64(fr.w.selfCPU)/1e3, float64(len(fr.w.lats))) +
		ratio(float64(fr.fleetCPU)/1e3, float64(fr.p.attempted))
}

// runNet runs one net workload. Untraced, the measuring time is split over
// netFleets fleets launched one after the other and every metric is the
// median of the fleets' values: how the kernel happens to place a fleet's
// six processes on the cores moves a whole fleet's numbers by more than any
// noise inside its window, and only a fresh launch draws again. The same
// launches are the run's set-ups.
func runNet(name string, cfg runCfg) (*result, error) {
	depth := netDepth[name]
	res := &result{workload: name, traced: cfg.traced, metrics: metrics{}}
	nodeBin, err := buildNode(cfg.outDir)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return runNetTraced(name, nodeBin, depth, cfg, res)
	}
	var fleets []metrics
	samples := 0
	for i := 0; i < netFleets; i++ {
		fr, err := runFleet(nodeBin, depth, cfg.seed, cfg.window/netFleets)
		if err != nil {
			return nil, err
		}
		res.attempted += fr.p.attempted
		res.failed += fr.p.failed
		lats, ops := fr.w.lats, len(fr.w.lats)
		samples += ops
		m := metrics{}
		m.set("latency_p50_us", percentile(lats, 50), 0)
		m.set("latency_p95_us", percentile(lats, 95), 0)
		m.set("throughput_kops", ratio(float64(ops), fr.w.elapsed.Seconds()*1e3), 0)
		m.set("allocs_per_op", ratio(float64(fr.w.mallocs), float64(ops)), 0)
		m.set("heap_live_mib", fr.heapMiB, 0)
		m.set("setup_s", fr.setupS, 0)
		fleets = append(fleets, m)
	}
	res.metrics = medianOf(fleets)
	for _, k := range []string{"latency_p50_us", "latency_p95_us", "throughput_kops", "allocs_per_op"} {
		res.metrics.set(k, res.metrics[k].V, samples)
	}
	return res, nil
}
