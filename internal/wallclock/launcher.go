package wallclock

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/ids"
)

// readyTimeout bounds how long LaunchLocal waits for every spawned node's
// listener to accept.
const readyTimeout = 15 * time.Second

// termGrace is how long Stop waits after SIGTERM before escalating to
// SIGKILL. Nodes exit promptly on SIGTERM (and flush their CPU profiles),
// so the grace window is generous relative to the expected instant exit.
const termGrace = 5 * time.Second

var errStopped = errors.New("wallclock: cluster already stopped")

// nodeProc is one spawned node process and its stdin pipe (the orphan-exit
// signal).
type nodeProc struct {
	cmd  *exec.Cmd
	pipe *os.File // stdin write end; closing it makes an orphan exit
}

// LocalCluster is a fleet of node processes launched on this machine plus
// the address plan the parent's in-process clients join with.
type LocalCluster struct {
	Table      map[ids.ID]string // the full peer table, clients included
	PeersArg   string            // Table in -peers syntax
	ClientAddr string            // the parent process's client listen address

	ReplicaIDs []ids.ID
	MemNodeIDs []ids.ID
	ClientIDs  []ids.ID

	exe        []string
	base       NodeConfig
	profileDir string
	stderr     io.Writer // where the nodes' output goes

	mu      sync.Mutex
	nodes   map[ids.ID]*nodeProc
	stopped bool
}

// allocPort reserves a free loopback TCP port by binding :0 and closing
// the listener. The tiny reuse race is acceptable for a local harness.
func allocPort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// LaunchLocal spawns one OS process per replica and memory node of the
// deployment base describes, using exe as the command prefix (argv[0] plus
// any leading arguments: a built cmd/ubft-node). Clients are NOT spawned:
// the caller hosts them in-process at ClientAddr (a closed-loop driver
// needs them under its own control). profileDir, when non-empty, makes
// every node write a CPU profile into it.
func LaunchLocal(exe []string, base NodeConfig, profileDir string) (*LocalCluster, error) {
	if len(exe) == 0 {
		return nil, fmt.Errorf("wallclock: empty launch command")
	}
	opts, err := base.Options()
	if err != nil {
		return nil, err
	}
	if err := opts.Normalize(); err != nil {
		return nil, err
	}

	lc := &LocalCluster{
		Table:      make(map[ids.ID]string),
		exe:        append([]string{}, exe...),
		base:       base,
		profileDir: profileDir,
		stderr:     os.Stderr,
		nodes:      make(map[ids.ID]*nodeProc),
	}
	layout := cluster.SingleGroupLayout(opts.F, opts.Fm, opts.MemNodes, opts.NumClients)
	lc.ReplicaIDs, lc.MemNodeIDs, lc.ClientIDs = layout.Groups[0], layout.MemNodes, layout.Clients

	// Address plan: one port per spawned node, one shared port for every
	// parent-hosted client (they share one listener; frames route by id).
	for _, id := range append(append([]ids.ID{}, lc.ReplicaIDs...), lc.MemNodeIDs...) {
		addr, err := allocPort()
		if err != nil {
			return nil, err
		}
		lc.Table[id] = addr
	}
	clientAddr, err := allocPort()
	if err != nil {
		return nil, err
	}
	lc.ClientAddr = clientAddr
	for _, id := range lc.ClientIDs {
		lc.Table[id] = clientAddr
	}
	lc.PeersArg = FormatPeers(lc.Table)

	for i, id := range lc.ReplicaIDs {
		if err := lc.spawn(cluster.RoleReplica, i, id, false); err != nil {
			lc.Stop()
			return nil, err
		}
	}
	for j, id := range lc.MemNodeIDs {
		if err := lc.spawn(cluster.RoleMemNode, j, id, false); err != nil {
			lc.Stop()
			return nil, err
		}
	}

	if err := lc.waitReady(); err != nil {
		lc.Stop()
		return nil, err
	}
	return lc, nil
}

// spawn starts one node process on its planned address and records it for
// Stop/KillNode/RestartNode. A restart that raced Stop must not leave a
// node Stop never saw: on a stopped cluster the new process is killed and
// reaped instead of recorded.
func (lc *LocalCluster) spawn(role cluster.Role, index int, id ids.ID, respawn bool) error {
	cfg := lc.base
	cfg.Role = string(role)
	cfg.Index = index
	cfg.Listen = lc.Table[id]
	cfg.Peers = lc.PeersArg
	cfg.ColdJoin = respawn && role == cluster.RoleReplica
	if lc.profileDir != "" {
		cfg.CPUProfile = fmt.Sprintf("%s/node-%d.pprof", lc.profileDir, int(id))
		if respawn {
			// A respawned incarnation must not clobber its predecessor's
			// profile (pprof merges all files in the directory anyway).
			cfg.CPUProfile = fmt.Sprintf("%s/node-%d-r%d.pprof", lc.profileDir, int(id), time.Now().UnixNano())
		}
	}
	cmd := exec.Command(lc.exe[0], append(append([]string{}, lc.exe[1:]...), cfg.Args()...)...)
	pr, pw, err := os.Pipe()
	if err != nil {
		return err
	}
	cmd.Stdin = pr
	cmd.Stdout = lc.stderr
	cmd.Stderr = lc.stderr
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return fmt.Errorf("wallclock: spawning %s%d: %w", role, index, err)
	}
	pr.Close()
	lc.mu.Lock()
	stopped := lc.stopped
	if !stopped {
		lc.nodes[id] = &nodeProc{cmd: cmd, pipe: pw}
	}
	lc.mu.Unlock()
	if stopped {
		pw.Close()
		cmd.Process.Kill()
		cmd.Wait()
		return errStopped
	}
	return nil
}

// KillNode SIGKILLs the process currently serving node id — no shutdown
// grace, no flush: the crash the recovery protocol is built for. The dead
// process is reaped (Wait) so no zombie outlives the harness; peers keep
// running and the launcher keeps the node's address reserved for a
// RestartNode.
func (lc *LocalCluster) KillNode(id ids.ID) error {
	lc.mu.Lock()
	np := lc.nodes[id]
	if np != nil {
		delete(lc.nodes, id)
	}
	lc.mu.Unlock()
	if np == nil {
		return fmt.Errorf("wallclock: node %d is not running", int(id))
	}
	np.pipe.Close()
	if np.cmd.Process != nil {
		np.cmd.Process.Kill()
	}
	np.cmd.Wait()
	return nil
}

// RestartNode respawns a previously killed node on its original address.
// Replicas come back in cold-rejoin mode with a fresh incarnation nonce
// (strictly above every one this identity used before), so the reborn
// process announces itself to its peers, pulls the f+1-certified snapshot
// and resumes; memory nodes are crash-only and restart blank. Blocks until
// the new process accepts connections.
func (lc *LocalCluster) RestartNode(id ids.ID) error {
	lc.mu.Lock()
	if lc.stopped {
		lc.mu.Unlock()
		return errStopped
	}
	if _, running := lc.nodes[id]; running {
		lc.mu.Unlock()
		return fmt.Errorf("wallclock: node %d is still running", int(id))
	}
	var role cluster.Role
	index := -1
	for i, rid := range lc.ReplicaIDs {
		if rid == id {
			role, index = cluster.RoleReplica, i
		}
	}
	for j, mid := range lc.MemNodeIDs {
		if mid == id {
			role, index = cluster.RoleMemNode, j
		}
	}
	if index < 0 {
		lc.mu.Unlock()
		return fmt.Errorf("wallclock: node %d is not part of this deployment", int(id))
	}
	lc.mu.Unlock()

	if err := lc.spawn(role, index, id, true); err != nil {
		return err
	}
	return waitListening(lc.Table[id], time.Now().Add(readyTimeout))
}

// waitReady dials every spawned node's listener until it accepts.
func (lc *LocalCluster) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for _, id := range append(append([]ids.ID{}, lc.ReplicaIDs...), lc.MemNodeIDs...) {
		if err := waitListening(lc.Table[id], deadline); err != nil {
			return err
		}
	}
	return nil
}

// waitListening dials one node's listener until it accepts or the deadline
// passes.
func waitListening(addr string, deadline time.Time) error {
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			// Guard against TCP self-connect: probing a loopback
			// ephemeral port before its node binds can connect to
			// itself, which would both report false readiness and hold
			// the port against the node. Close releases it; retry.
			ready := c.LocalAddr().String() != c.RemoteAddr().String()
			c.Close()
			if ready {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wallclock: node at %s not accepting within %v", addr, readyTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Stop tears the fleet down, SIGTERM-first: every node gets the signal
// (plus its stdin-EOF exit cue, which also flushes CPU profiles)
// immediately, then a grace window to exit cleanly; stragglers are
// SIGKILLed. Every process is reaped with Wait either way, so no zombies
// outlive the harness. Idempotent.
func (lc *LocalCluster) Stop() {
	lc.mu.Lock()
	if lc.stopped {
		lc.mu.Unlock()
		return
	}
	lc.stopped = true
	procs := make([]*nodeProc, 0, len(lc.nodes))
	for _, np := range lc.nodes {
		procs = append(procs, np)
	}
	lc.nodes = make(map[ids.ID]*nodeProc)
	lc.mu.Unlock()

	for _, np := range procs {
		np.pipe.Close()
		if np.cmd.Process != nil {
			np.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	done := make(chan struct{})
	go func() {
		for _, np := range procs {
			np.cmd.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(termGrace):
	}
	for _, np := range procs {
		if np.cmd.Process != nil {
			np.cmd.Process.Kill()
		}
	}
	<-done
}
