package wallclock

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/outcome"
	"repro/internal/sim"
)

// The process tests run this test binary as the node: `<binary> -- <node
// flags>` does what cmd/ubft-node's main does.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.NArg() == 0 {
		// For the children: a -race build sleeps 1 s at exit by default,
		// which is the whole exit deadline the tests below give a node.
		os.Setenv("GORACE", "atexit_sleep_ms=0")
		os.Exit(m.Run())
	}
	var cfg NodeConfig
	fs := flag.NewFlagSet("node", flag.ExitOnError)
	cfg.RegisterFlags(fs)
	fs.Parse(flag.Args())
	if err := RunNode(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "node:", err)
		os.Exit(1)
	}
}

var (
	nodeExe  = []string{os.Args[0], "--"}
	fleetCfg = NodeConfig{App: "kv", Seed: 1, F: 1, Fm: 1, MemNodes: 2, Clients: 1}
)

// noChildren fails the test if any child process of this one, running or
// zombie, is left.
func noChildren(t *testing.T) {
	t.Helper()
	if pid, err := syscall.Wait4(-1, nil, syscall.WNOHANG, nil); !errors.Is(err, syscall.ECHILD) {
		t.Errorf("a child process outlived the harness (wait4: pid %d, err %v)", pid, err)
	}
}

func TestPeersRoundTrip(t *testing.T) {
	table, err := ParsePeers("100=h:1, 2=127.0.0.1:4002,0=127.0.0.1:4000")
	if want := "0=127.0.0.1:4000,2=127.0.0.1:4002,100=h:1"; err != nil || FormatPeers(table) != want {
		t.Fatalf("round trip gave %q, %v; want %q", FormatPeers(table), err, want)
	}
	for _, bad := range []string{"0=a,nope", "x=a"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted a malformed entry", bad)
		}
	}
}

func TestOptions(t *testing.T) {
	if _, err := (NodeConfig{App: "nosuchapp"}).Options(); err == nil {
		t.Error("unknown -app accepted")
	}
	a, errA := fleetCfg.Options()
	b, errB := fleetCfg.Options()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if reflect.TypeOf(a.NewApp()) != reflect.TypeOf(b.NewApp()) {
		t.Error("same flags, different application")
	}
	a.NewApp, b.NewApp = nil, nil // funcs never compare equal
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same flags, different cluster.Options:\n%+v\n%+v", a, b)
	}
}

func TestArgsRoundTrip(t *testing.T) {
	full := NodeConfig{Role: "replica", Index: 2, Listen: "127.0.0.1:4002", Peers: "0=a:1,2=b:2", App: "rkv",
		Seed: -7, F: 2, Fm: 1, MemNodes: 3, Clients: 4, Window: 64, Tail: 16,
		ColdJoin: true, CPUProfile: ""}
	for _, c := range []NodeConfig{{}, fleetCfg, full} {
		var got NodeConfig
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		got.RegisterFlags(fs)
		if err := fs.Parse(c.Args()); err != nil || got != c || fs.NArg() != 0 {
			t.Errorf("Args %q parsed back as %+v (%v), want %+v", c.Args(), got, err, c)
		}
	}
}

func TestLaunchLocalRejects(t *testing.T) {
	tooMany, badApp := fleetCfg, fleetCfg
	tooMany.MemNodes, badApp.App = 4, "nosuchapp"
	for _, c := range []struct {
		exe []string
		cfg NodeConfig
	}{{nil, fleetCfg}, {nodeExe, tooMany}, {nodeExe, badApp}} {
		if lc, err := LaunchLocal(c.exe, c.cfg, ""); err == nil {
			lc.Stop()
			t.Errorf("LaunchLocal(%q, %+v) launched", c.exe, c.cfg)
		}
	}
	noChildren(t)
}

// TestNodeStdin: a node whose stdin is not a pipe (started by hand with
// </dev/null, nohup, systemd) must not take its EOF for a dead launcher; a
// node on a launcher's pipe must exit when that pipe closes.
func TestNodeStdin(t *testing.T) {
	type child struct {
		cmd    *exec.Cmd
		stdin  *os.File      // write end, when stdin is a pipe
		stderr *bufio.Reader // what the node prints
		exited chan struct{} // closed once err holds cmd.Wait's result
		err    error
	}
	start := func(t *testing.T, pipeStdin bool) *child {
		addr, err := allocPort()
		if err != nil {
			t.Fatal(err)
		}
		cfg := fleetCfg
		cfg.Role, cfg.Listen = "memnode", addr
		c := &child{cmd: exec.Command(nodeExe[0], append(nodeExe[1:], cfg.Args()...)...), exited: make(chan struct{})}
		errR, errW, _ := os.Pipe()
		errR.SetReadDeadline(time.Now().Add(10 * time.Second))
		c.cmd.Stderr, c.stderr = errW, bufio.NewReader(errR)
		if pipeStdin {
			var inR *os.File
			inR, c.stdin, _ = os.Pipe()
			c.cmd.Stdin = inR
			defer inR.Close()
		}
		if err := c.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		errW.Close()
		go func() { c.err = c.cmd.Wait(); close(c.exited) }()
		t.Cleanup(func() { c.cmd.Process.Kill(); <-c.exited; errR.Close() })
		if err := waitListening(addr, time.Now().Add(readyTimeout)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	exitsWithin := func(t *testing.T, c *child, d time.Duration) {
		select {
		case <-c.exited:
			if c.err != nil {
				t.Errorf("node exited with %v, want a clean exit", c.err)
			}
		case <-time.After(d):
			t.Errorf("node still running after %v", d)
		}
	}
	t.Run("devnull", func(t *testing.T) {
		c := start(t, false)
		select {
		case <-c.exited:
			t.Fatalf("node on /dev/null exited by itself: %v", c.err)
		case <-time.After(300 * time.Millisecond):
		}
		c.cmd.Process.Signal(syscall.SIGUSR1)
		if line, err := c.stderr.ReadString('\n'); err != nil || !strings.HasPrefix(line, "memnode0: net={") {
			t.Errorf("SIGUSR1 printed %q (%v), want the progress line", line, err)
		}
		c.cmd.Process.Signal(syscall.SIGTERM)
		exitsWithin(t, c, time.Second)
	})
	t.Run("pipe", func(t *testing.T) {
		c := start(t, true)
		c.stdin.Close()
		exitsWithin(t, c, time.Second)
	})
}

// TestRestartRacingStop: a RestartNode that passed its stopped check just
// before Stop ran reaches spawn on a stopped cluster; the process it starts
// there must be reaped, not leaked.
func TestRestartRacingStop(t *testing.T) {
	lc, err := LaunchLocal(nodeExe, fleetCfg, "")
	if err != nil {
		t.Fatal(err)
	}
	victim := lc.ReplicaIDs[2]
	if err := lc.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	lc.Stop()
	if err := lc.RestartNode(victim); !errors.Is(err, errStopped) {
		t.Errorf("RestartNode after Stop: %v", err)
	}
	if err := lc.spawn(cluster.RoleReplica, 2, victim, true); !errors.Is(err, errStopped) {
		t.Errorf("spawn after Stop: %v", err)
	}
	noChildren(t)
}

// rig is a fleet of node processes plus a client joined to it the way a
// `-role client` node joins.
type rig struct {
	lc *LocalCluster
	cl *node
}

// chaosOnly skips a process-fleet test unless `make chaos-suite` runs it.
func chaosOnly(t *testing.T) {
	t.Helper()
	if os.Getenv("CHAOS_SEEDS") == "" {
		t.Skip("process-fleet test: run by `make chaos-suite` (CHAOS_SEEDS set)")
	}
}

// launch starts a fleet and joins a client to it. An error is the
// launcher's or the client's set-up, never the protocol's.
func launch() (rig, error) {
	lc, err := LaunchLocal(nodeExe, fleetCfg, "")
	if err != nil {
		return rig{}, err
	}
	cfg := fleetCfg
	cfg.Role, cfg.Listen, cfg.Peers = "client", lc.ClientAddr, lc.PeersArg
	cl, err := join(cfg)
	if err != nil {
		lc.Stop()
		return rig{}, err
	}
	return rig{lc, cl}, nil
}

// stop closes the client, then the fleet.
func (r rig) stop() {
	r.cl.close()
	r.lc.Stop()
}

// pump drives the client in a closed loop, depth requests in flight, until n
// operations were submitted and d has passed, then waits for the drain. It
// returns how many completed and how many of those came back empty. The
// workload is the KV service's SET-then-GET over 64 keys. If no operation
// completes for stallAfter, every node is asked for its progress line
// (SIGUSR1) and pump returns an error: the cluster wedged.
func (r rig) pump(depth, n int, d time.Duration) (ops, failed int, err error) {
	end, idle := time.Now().Add(d), make(chan struct{})
	var last atomic.Int64 // wall clock of the latest completion, in ns
	last.Store(time.Now().UnixNano())
	outstanding, seq := 0, 0
	var submit func()
	submit = func() {
		key, set := []byte(fmt.Sprintf("key-%02d", seq/2%64)), seq%2 == 0
		seq++
		outstanding++
		req := app.EncodeKVGet(key)
		if set {
			req = app.EncodeKVSet(key, make([]byte, 64))
		}
		r.cl.member.Client.Invoke(req, func(res []byte, _ sim.Duration) {
			last.Store(time.Now().UnixNano())
			outstanding--
			ops++
			if len(res) == 0 {
				failed++
			}
			if seq < n || time.Now().Before(end) {
				submit()
			} else if outstanding == 0 {
				close(idle)
			}
		})
	}
	r.cl.host.Do(func() {
		for i := 0; i < depth; i++ {
			submit()
		}
	})
	watch := time.NewTicker(100 * time.Millisecond)
	defer watch.Stop()
	for {
		select {
		case <-idle:
			return ops, failed, nil
		case <-watch.C:
		}
		if time.Since(time.Unix(0, last.Load())) < stallAfter {
			continue
		}
		r.lc.mu.Lock()
		for _, np := range r.lc.nodes {
			np.cmd.Process.Signal(syscall.SIGUSR1)
		}
		r.lc.mu.Unlock()
		time.Sleep(time.Second) // let them print
		return 0, 0, fmt.Errorf("no operation completed for %v: cluster wedged, progress lines above", stallAfter)
	}
}

// stallAfter is how long a closed-loop client may see no operation complete
// before its cluster counts as wedged. Over 40 follower-crash runs on
// loopback with two vCPUs, the longest gap between completions of a passing
// run was 0.67 s (most under 0.1 s), and none of the 3 wedges (ROADMAP item
// 2) completed another operation within 40 s.
const stallAfter = 10 * time.Second

func TestFleetServes(t *testing.T) {
	chaosOnly(t)
	r, err := launch()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.stop)
	if ops, failed, err := r.pump(1, 200, 0); err != nil || ops != 200 || failed != 0 {
		t.Errorf("%d operations completed, %d empty (%v); want 200 and 0", ops, failed, err)
	}
	r.lc.Stop()
	r.lc.Stop()
	noChildren(t)
}

// rejoinWatch is the respawned victim's output: passed through, and watched
// for the progress line of a replica that completed its cold rejoin.
type rejoinWatch struct{ seen atomic.Bool }

func (w *rejoinWatch) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(" recovering=false rejoins=1 ")) {
		w.seen.Store(true)
	}
	return os.Stderr.Write(p)
}

// TestFleetSurvivesFollowerCrash is the process-level chaos gate: one
// followerCrash run must pass. `make lossy-sweep` runs it 50 times for the
// outcome ledger's [fleet] line.
func TestFleetSurvivesFollowerCrash(t *testing.T) {
	chaosOnly(t)
	v, err := followerCrash(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != outcome.Pass {
		t.Fatal(v)
	}
}

// followerCrash is one process-level chaos run: a follower (never the view-0
// leader, so the workload keeps its leader) is SIGKILLed a third into a 3 s
// closed-loop window at depth 4 and respawned in cold-rejoin mode at two
// thirds. The client must see no failed operation and drain, and under
// continued load the respawned process must itself report a completed rejoin
// (it leaves the observe-only state at a checkpoint, which takes traffic).
// It returns the run's verdict: wedged if the client does not drain or the
// rejoin is never reported, violated if an operation came back empty. An
// error is the launcher's (a port lost between allocPort and the node's
// bind, say) and says nothing about the protocol.
func followerCrash(logf func(string, ...any)) (outcome.Verdict, error) {
	r, err := launch()
	if err != nil {
		return outcome.Verdict{}, err
	}
	defer r.stop()
	const window = 3 * time.Second
	victim := r.lc.ReplicaIDs[len(r.lc.ReplicaIDs)-1]
	var rejoined rejoinWatch
	r.lc.stderr = &rejoined // of nodes spawned from here on: the victim's next life

	if _, _, err := r.pump(4, 0, 300*time.Millisecond); err != nil { // warm-up: connections dialled
		return outcome.Wedged.Because("warm-up: %v", err), nil
	}
	chaos := make(chan error, 1)
	go func() {
		time.Sleep(window / 3)
		if err := r.lc.KillNode(victim); err != nil {
			chaos <- err
			return
		}
		time.Sleep(window / 3)
		chaos <- r.lc.RestartNode(victim)
	}()
	ops, failed, err := r.pump(4, 0, window)
	if err := <-chaos; err != nil {
		return outcome.Verdict{}, err
	}
	switch {
	case err != nil:
		return outcome.Wedged.Because("%v", err), nil
	case failed != 0:
		return outcome.Violated.Because("%d of %d operations came back empty across the crash", failed, ops), nil
	case ops == 0:
		return outcome.Wedged.Because("no operation completed across the crash"), nil
	}
	logf("%d operations in %v across the crash (%.2f kops/s)", ops, window, float64(ops)/window.Seconds()/1e3)

	for deadline := time.Now().Add(10 * time.Second); !rejoined.seen.Load(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			return outcome.Wedged.Because("the respawned replica never reported a completed rejoin (its progress lines are above)"), nil
		}
		if _, failed, err := r.pump(4, 100, 0); err != nil {
			return outcome.Wedged.Because("after the respawn: %v", err), nil
		} else if failed != 0 {
			return outcome.Violated.Because("%d empty responses after the respawn", failed), nil
		}
		r.lc.nodes[victim].cmd.Process.Signal(syscall.SIGUSR1)
	}
	return outcome.Verdict{}, nil
}
