// Package wallclock is the real-time deployment harness: it runs the same
// consensus stack the deterministic simulation exercises as actual OS
// processes over the nettrans socket transport, measured with the wall
// clock instead of the virtual one.
//
// Two layers:
//
//   - NodeConfig/RunNode — one cluster member (replica, memory node or
//     client) as one process: the engine room of cmd/ubft-node.
//   - LaunchLocal — a local multi-process launcher: allocates ports, spawns
//     one process per replica and memory node, waits for their listeners,
//     kills and respawns single nodes, and tears the fleet down (SIGTERM,
//     then kill).
//
// Measuring the fleet is the repository benchmark's job (bench/, the net-*
// workloads); the process-level crash/rejoin gate is this package's test.
//
// Everything that must agree across processes (identity layout, key
// registry, consensus configuration) is derived deterministically from the
// shared flag set by cluster.NewMember — no coordination service.
package wallclock

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/nettrans"
	"repro/internal/sim"
)

// NodeConfig is the full flag surface one node process needs. The same
// struct serves cmd/ubft-node and the launcher, which serializes it back
// to argv.
type NodeConfig struct {
	Role   string // replica | memnode | client
	Index  int    // index within the role's pool
	Listen string
	Peers  string // static peer table: "id=host:port,id=host:port,..."

	App      string // kv | flip | rkv | orderbook
	Seed     int64
	F, Fm    int
	MemNodes int // memory-node pool size (0 = 2Fm+1)
	Clients  int
	Window   int
	Tail     int

	// ColdJoin boots a replica in the cold-rejoin recovering state (a
	// process respawned after a crash).
	ColdJoin bool

	CPUProfile string // write a CPU profile here
}

// RegisterFlags binds the node flag surface onto fs.
func (c *NodeConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Role, "role", "replica", "node role: replica, memnode or client")
	fs.IntVar(&c.Index, "index", 0, "index within the role's pool")
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:0", "TCP listen address")
	fs.StringVar(&c.Peers, "peers", "", "static peer table: id=host:port,...")
	fs.StringVar(&c.App, "app", "kv", "application: kv, flip, rkv or orderbook")
	fs.Int64Var(&c.Seed, "seed", 1, "deployment seed (keys, workload rng; must match across processes)")
	fs.IntVar(&c.F, "f", 1, "replica fault threshold f (2f+1 replicas)")
	fs.IntVar(&c.Fm, "fm", 1, "memory-node fault threshold f_m")
	fs.IntVar(&c.MemNodes, "memnodes", 0, "memory-node pool size (0 = 2fm+1; any size in [fm+1, 2fm+1] is legal)")
	fs.IntVar(&c.Clients, "clients", 1, "number of client identities")
	fs.IntVar(&c.Window, "window", 0, "consensus window (0 = paper default)")
	fs.IntVar(&c.Tail, "tail", 0, "CTBcast tail (0 = paper default)")
	fs.BoolVar(&c.ColdJoin, "coldjoin", false, "boot a replica in the cold-rejoin recovering state (post-crash respawn)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
}

// Args serializes the config back to the argv the launcher passes to a
// node process: every flag RegisterFlags knows, so the two cannot drift.
func (c NodeConfig) Args() []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	bound := new(NodeConfig)
	bound.RegisterFlags(fs) // binds the flags to bound's fields, writing the defaults
	*bound = c              // which now read back c's values
	var args []string
	fs.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
	return args
}

// NewAppByName maps the -app flag onto a state-machine constructor.
func NewAppByName(name string) (func() app.StateMachine, error) {
	switch name {
	case "", "kv":
		return func() app.StateMachine { return app.NewKV(0) }, nil
	case "flip":
		return func() app.StateMachine { return app.NewFlip() }, nil
	case "rkv":
		return func() app.StateMachine { return app.NewRKV() }, nil
	case "orderbook":
		return func() app.StateMachine { return app.NewOrderBook() }, nil
	default:
		return nil, fmt.Errorf("wallclock: unknown application %q (want kv, flip, rkv or orderbook)", name)
	}
}

// Options maps the shared deployment shape onto cluster.Options. Every
// process of one deployment must produce identical Options (same flags).
func (c NodeConfig) Options() (cluster.Options, error) {
	newApp, err := NewAppByName(c.App)
	if err != nil {
		return cluster.Options{}, err
	}
	return cluster.Options{
		Seed:       c.Seed,
		F:          c.F,
		Fm:         c.Fm,
		MemNodes:   c.MemNodes,
		NumClients: c.Clients,
		Window:     c.Window,
		Tail:       c.Tail,
		NewApp:     newApp,
		// The fast-path fallback defaults assume the simulated RDMA fabric,
		// where a slot that misses unanimity is a rare microsecond hiccup.
		// Under nettrans every timer stretches by nettrans.TimerScale, which
		// would put the default 1ms fallback at 100ms — far beyond kernel
		// TCP's hiccup scale (~1-2ms loaded). 200us here lands the scaled
		// fallback at 20ms real time: above any loopback hiccup, small
		// against the 100ms a slot would otherwise stall for.
		// The default 2ms leader suspicion lands at 200ms real: an order of
		// magnitude above this 20ms fallback, so steady progress never trips
		// it, while a genuine stall rotates the leader well inside the
		// bench's drain grace.
		SlowPathDelay: 200 * sim.Microsecond,
	}, nil
}

// ParsePeers decodes a "-peers" table ("id=host:port,...").
func ParsePeers(s string) (map[ids.ID]string, error) {
	table := make(map[ids.ID]string)
	if strings.TrimSpace(s) == "" {
		return table, nil
	}
	for _, ent := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok {
			return nil, fmt.Errorf("wallclock: malformed peer entry %q (want id=host:port)", ent)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("wallclock: malformed peer id %q: %w", id, err)
		}
		table[ids.ID(n)] = addr
	}
	return table, nil
}

// FormatPeers is the inverse of ParsePeers, in deterministic id order.
func FormatPeers(table map[ids.ID]string) string {
	idList := make([]int, 0, len(table))
	for id := range table {
		idList = append(idList, int(id))
	}
	sort.Ints(idList)
	ents := make([]string, 0, len(idList))
	for _, id := range idList {
		ents = append(ents, fmt.Sprintf("%d=%s", id, table[ids.ID(id)]))
	}
	return strings.Join(ents, ",")
}

// node is one cluster member assembled in this process: its own host loop
// and listener with the member wired onto them.
type node struct {
	host   *nettrans.Host
	net    *nettrans.Net
	member *cluster.Member
}

// join listens on c.Listen, assembles the member c describes against the
// c.Peers table and starts its host loop.
func join(c NodeConfig) (*node, error) {
	role, err := cluster.ParseRole(c.Role)
	if err != nil {
		return nil, err
	}
	opts, err := c.Options()
	if err != nil {
		return nil, err
	}
	table, err := ParsePeers(c.Peers)
	if err != nil {
		return nil, err
	}
	h := nettrans.NewHost(c.Seed)
	nt, err := nettrans.Listen(h, nettrans.Options{
		ListenAddr: c.Listen,
		Resolve:    nettrans.NewAddrTable(table).Resolve,
	})
	if err != nil {
		return nil, err
	}
	// A cold join's incarnation number, which peers answer it by (and reset
	// the joiner's channels on, once per increase), is the boot clock, the
	// rule nettrans uses for its link sequence numbers: a reborn process
	// outruns every incarnation of its identity before it, whoever started
	// it. A replica that does not cold-join has none.
	spec := cluster.MemberSpec{Role: role, Index: c.Index}
	if c.ColdJoin {
		spec.JoinNonce = uint64(time.Now().UnixNano())
	}
	m, err := cluster.NewMember(opts, nt, spec)
	if err != nil {
		nt.Close()
		return nil, err
	}
	h.Start()
	return &node{host: h, net: nt, member: m}, nil
}

// close stops the member, its host loop and its listener.
func (n *node) close() {
	n.host.Do(n.member.Stop)
	n.host.Stop()
	n.net.Close()
}

// progress is the one-line state dump a node prints on SIGUSR1. Host loop
// only.
func (n *node) progress() string {
	line := fmt.Sprintf("net=%+v", n.net.Stats())
	if r := n.member.Replica; r != nil {
		next, exec, chkpt, waiting := r.Progress()
		fast, slow, summaries := r.GroupStats()
		line = fmt.Sprintf("view=%d recovering=%v rejoins=%d next=%d exec=%d chkpt=%d waiting=%d fast=%d slow=%d summaries=%d slots=[%s] %s",
			r.View(), r.Recovering(), r.Rejoins, next, exec, chkpt, waiting, fast, slow, summaries, r.StallReport(), line)
	}
	return line
}

// RunNode runs one cluster member process until SIGINT/SIGTERM. When stdin
// is a pipe it also exits at EOF there: a launcher holds the write end, so
// an orphaned node dies with its parent. Any other stdin (/dev/null, a
// file, a terminal: a node started by hand, nohup or systemd) says nothing
// about a parent and is not watched. SIGUSR1 prints one progress line to
// stderr.
func RunNode(c NodeConfig) error {
	n, err := join(c)
	if err != nil {
		return err
	}
	defer n.close()
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	var eofC chan struct{} // stays nil, and so never ready, unless stdin is a pipe
	if st, err := os.Stdin.Stat(); err == nil && st.Mode()&os.ModeNamedPipe != 0 {
		eofC = make(chan struct{})
		go func() {
			io.Copy(io.Discard, os.Stdin)
			close(eofC)
		}()
	}
	for {
		select {
		case sig := <-sigC:
			if sig != syscall.SIGUSR1 {
				return nil
			}
			n.host.Do(func() { fmt.Fprintf(os.Stderr, "%s%d: %s\n", c.Role, c.Index, n.progress()) })
		case <-eofC:
			return nil
		}
	}
}
