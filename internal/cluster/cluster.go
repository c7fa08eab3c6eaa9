// Package cluster is the deployment assembler. The paper's testbed is one
// shape (§7: 1 client, 2f+1 replicas, 2f_m+1 memory nodes on one switch)
// and its memory nodes "can be shared among many applications" (§1), so
// every deployment in this repository is S >= 1 groups of that shape over
// one memory-node pool, described by a Layout and wired node by node onto
// a transport.Fabric by an Assembly (assembly.go). This package's own entry
// points are views of that core: Build/NewUBFT wire every node of the
// one-group layout (the examples' and benchmarks' simulated cluster), and
// NewMember wires a single node of the same layout on an injected fabric
// (one ubft-node process). internal/shard wires the S-group layout through
// the same Assembly. The baseline systems the paper compares against are
// assembled in baselines.go.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/app"
	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Options configures a uBFT cluster. Zero values take the paper's defaults.
type Options struct {
	Seed       int64
	F          int // replica fault threshold (default 1 -> 3 replicas)
	Fm         int // memory-node fault threshold (default 1 -> 3 memory nodes)
	NumClients int // default 1

	// MemNodes sets the memory-node pool size; 0 takes the paper's 2Fm+1.
	// Any pool in [Fm+1, 2Fm+1] preserves write/read quorum intersection
	// (quorums are Fm+1 of the pool), so lean wall-clock deployments can
	// run e.g. 2 memory nodes at Fm=1.
	MemNodes int

	Window int // consensus window (paper default 256)
	Tail   int // CTBcast tail t (paper default 128)
	MsgCap int // max request size (default 8 KiB)

	// DisableFastPath turns uBFT's fast path off: fill sets CTBMode to
	// SlowOnly, under which every slot and every broadcast takes the
	// signed slow path.
	DisableFastPath   bool
	CTBMode           ctbcast.PathMode
	SlowPathDelay     sim.Duration // fast-to-slow fallback, per consensus slot and per CTBcast identifier; 0 takes 1ms
	ViewChangeTimeout sim.Duration // leader suspicion (§5.3), doubled per failed view change; 0 takes 2ms

	// NewApp builds one state-machine instance per replica; nil defaults
	// to Flip.
	NewApp func() app.StateMachine

	// Fabric injects the transport backend the cluster's endpoints are
	// created on. Nil defaults to a fresh deterministic simnet fabric with
	// the RDMA-class network model, its engine seeded with Seed
	// (bit-identical per seed); a test wanting another network model
	// injects simnet.AsFabric(simnet.New(sim.NewEngine(Seed), opts)). A
	// real-socket deployment injects a nettrans-backed fabric; a Fabric
	// whose Engine() is nil is rejected by Normalize with a clear error — it
	// can never schedule a single event.
	Fabric transport.Fabric
}

func (o *Options) fill() {
	if o.F == 0 {
		o.F = 1
	}
	if o.Fm == 0 {
		o.Fm = 1
	}
	if o.NumClients == 0 {
		o.NumClients = 1
	}
	if o.Window == 0 {
		o.Window = 256
	}
	if o.Tail == 0 {
		// A small explicit Window keeps the defaulted Tail valid: the zero
		// value takes the paper's 128, or the largest even tail the window
		// allows.
		o.Tail = min(128, o.Window&^1)
	}
	if o.MsgCap == 0 {
		o.MsgCap = 8192
	}
	if o.SlowPathDelay == 0 {
		// Far above common-case latency: a fallback that fires on transient
		// hiccups keeps the system in the slow path (see ctbcast.Params).
		o.SlowPathDelay = sim.Millisecond
	}
	if o.ViewChangeTimeout == 0 {
		o.ViewChangeTimeout = 2 * sim.Millisecond
	}
	if o.DisableFastPath {
		o.CTBMode = ctbcast.SlowOnly
	}
	if o.NewApp == nil {
		o.NewApp = func() app.StateMachine { return app.NewFlip() }
	}
}

// validate rejects configurations that would assemble a broken cluster.
// Called after fill, so zero values have already taken the paper defaults.
func (o *Options) validate() error {
	switch {
	case o.F < 0:
		return fmt.Errorf("cluster: negative replica fault threshold F=%d", o.F)
	case 2*o.F+1 > 64:
		// Consensus vote sets are uint64 bitmasks indexed by replica
		// position; rejecting here also keeps replica IDs clear of the
		// memory-node/client ID bases in every deployment layout.
		return fmt.Errorf("cluster: F=%d needs %d replicas, above the 64-replica limit", o.F, 2*o.F+1)
	case o.Fm < 0:
		return fmt.Errorf("cluster: negative memory-node fault threshold Fm=%d", o.Fm)
	case 2*o.Fm+1 >= clientIDBase-memNodeIDBase:
		return fmt.Errorf("cluster: Fm=%d needs %d memory nodes, colliding with the client ID base", o.Fm, 2*o.Fm+1)
	case o.NumClients < 0:
		return fmt.Errorf("cluster: negative NumClients=%d", o.NumClients)
	case o.MemNodes != 0 && (o.MemNodes < o.Fm+1 || o.MemNodes > 2*o.Fm+1):
		// Quorums are Fm+1 of the pool: fewer than Fm+1 nodes can never
		// form one, more than 2Fm+1 breaks write/read quorum intersection.
		return fmt.Errorf("cluster: MemNodes=%d outside [Fm+1=%d, 2Fm+1=%d]", o.MemNodes, o.Fm+1, 2*o.Fm+1)
	case o.MsgCap < 0:
		return fmt.Errorf("cluster: negative MsgCap=%d", o.MsgCap)
	case o.Window < 0 || o.Tail < 0:
		return fmt.Errorf("cluster: negative Window=%d or Tail=%d", o.Window, o.Tail)
	case o.SlowPathDelay < 0 || o.ViewChangeTimeout < 0:
		return fmt.Errorf("cluster: negative timer (SlowPathDelay=%d ViewChangeTimeout=%d)", o.SlowPathDelay, o.ViewChangeTimeout)
	case o.Tail < 2 || o.Tail%2 != 0:
		// A CTBcast group works its tail in two halves (ctbcast.NewGroup
		// panics on any other).
		return fmt.Errorf("cluster: Tail=%d must be even and at least 2 (Window=%d)", o.Tail, o.Window)
	case o.Tail > o.Window:
		// CTBcast retains at most Tail unacknowledged messages per
		// broadcaster while consensus keeps Window slots open: a tail longer
		// than the window can never fill, and the summary sizing assumes
		// Tail <= Window.
		return fmt.Errorf("cluster: Tail=%d exceeds Window=%d", o.Tail, o.Window)
	case (&consensus.Config{Window: o.Window, MsgCap: o.MsgCap}).SummaryCap() > transport.MaxFrame:
		// A channel summary travels as one frame: one the transport cannot
		// carry is never certified, and its broadcaster stops t identifiers on.
		return fmt.Errorf("cluster: Window=%d x MsgCap=%d summaries exceed a %d-byte transport frame", o.Window, o.MsgCap, transport.MaxFrame)
	case o.Fabric != nil && o.Fabric.Engine() == nil:
		// An injected transport without an engine can never run an event:
		// fail assembly with a diagnosis instead of a nil-deref panic deep
		// in the wiring (real-transport callers must inject an engine-backed
		// fabric such as a nettrans host's).
		return fmt.Errorf("cluster: injected transport fabric has no engine (real-transport deployments must pass an engine-backed fabric, e.g. nettrans)")
	}
	return nil
}

// Normalize fills defaults and validates the result; every entry point
// calls it before handing the options to NewAssembly.
func (o *Options) Normalize() error {
	o.fill()
	return o.validate()
}

// UBFT is an assembled single-group cluster: every node of
// SingleGroupLayout, with the group's replicas and apps flattened out.
type UBFT struct {
	Eng      *sim.Engine
	Net      *simnet.Network // nil when a non-simnet fabric was injected
	Registry *xcrypto.Registry
	Replicas []*consensus.Replica
	Apps     []app.StateMachine
	MemNodes []*memnode.Node
	Clients  []*consensus.Client

	ReplicaIDs []ids.ID
	MemNodeIDs []ids.ID
	ClientIDs  []ids.ID

	asm *Assembly
}

// NewUBFT builds and wires a cluster. The engine starts at virtual time 0;
// call Run* on u.Eng to execute. Invalid options (negative thresholds,
// Tail > Window) panic: they are assembly-time bugs, not runtime faults.
// Build is the error-returning variant.
func NewUBFT(opts Options) *UBFT {
	u, err := Build(opts)
	if err != nil {
		panic(err)
	}
	return u
}

// singleGroup prepares the assembly Build and NewMember share; opts are
// normalized.
func singleGroup(opts Options, off consensus.Defenses) *Assembly {
	return NewAssembly(opts, SingleGroupLayout(opts.F, opts.Fm, opts.MemNodes, opts.NumClients),
		func(int) app.StateMachine { return opts.NewApp() }, off)
}

// Build builds and wires a cluster, reporting invalid options (including a
// fabric without an engine) as an error instead of a panic. With a nil
// opts.Fabric it assembles the deterministic simulated fabric,
// bit-identical per seed.
func Build(opts Options) (*UBFT, error) {
	return BuildWithDefenses(opts, consensus.Defenses{})
}

// BuildWithDefenses is Build with the given protocol defenses switched OFF
// in every replica. Not a deployment surface: it exists for the
// paper's no-echo-round ablation and for tests that prove a checker trips
// once a defense is gone.
func BuildWithDefenses(opts Options, off consensus.Defenses) (*UBFT, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	a := singleGroup(opts, off)
	if err := a.WireNodes(); err != nil {
		return nil, err
	}
	grp := a.Groups[0]
	u := &UBFT{
		Eng: a.Eng, Net: a.Net, Registry: a.Registry,
		// Shared backing arrays: RestartReplica's in-place replacement shows
		// through these views.
		Replicas: grp.Replicas, Apps: grp.Apps, MemNodes: a.MemNodes,
		ReplicaIDs: grp.ReplicaIDs, MemNodeIDs: a.Layout.MemNodes, ClientIDs: a.Layout.Clients,
		asm: a,
	}
	for c := range u.ClientIDs {
		cl, err := a.WireClient(c)
		if err != nil {
			return nil, err
		}
		u.Clients = append(u.Clients, cl)
	}
	return u, nil
}

// Client returns client i (panics if absent).
func (u *UBFT) Client(i int) *consensus.Client { return u.Clients[i] }

// KillReplica crash-stops replica i (see Assembly.KillReplica).
func (u *UBFT) KillReplica(i int) error { return u.asm.KillReplica(0, i) }

// KillMemNode crash-stops memory node j for good (see Assembly.KillMemNode).
func (u *UBFT) KillMemNode(j int) error { return u.asm.KillMemNode(j) }

// RestartReplica boots a fresh cold-rejoining replica for slot i after
// KillReplica (see Assembly.RestartReplica).
func (u *UBFT) RestartReplica(i int) error { return u.asm.RestartReplica(0, i) }

// Stop crash-stops all replicas (see Assembly.Stop).
func (u *UBFT) Stop() { u.asm.Stop() }

// Quiescent checks the quiescence invariant (see Assembly.Quiescent).
func (u *UBFT) Quiescent() error { return u.asm.Quiescent() }

// CheckAgreement compares the replicas' final states (see
// Assembly.CheckAgreement).
func (u *UBFT) CheckAgreement() error { return u.asm.CheckAgreement() }

// InvokeSync failure outcomes, distinct: a timeout means virtual time
// reached the deadline with events still flowing; a stall means the engine
// ran out of events first — nothing more will ever happen (a deadlocked or
// fully partitioned deployment).
var (
	// ErrTimeout is returned when maxWait elapses before the result.
	ErrTimeout = errors.New("cluster: invoke timed out")
	// ErrStalled is returned when the engine runs out of events before the
	// deadline: the deployment can make no further progress.
	ErrStalled = errors.New("cluster: engine ran out of events before the deadline (deployment stalled)")
)

// InvokeSync submits a request from client ci and runs the engine until the
// result arrives or maxWait elapses. It returns the result and the
// end-to-end latency, or a nil result, zero latency and ErrTimeout
// (deadline hit) or ErrStalled (engine out of events).
func (u *UBFT) InvokeSync(ci int, payload []byte, maxWait sim.Duration) ([]byte, sim.Duration, error) {
	return SyncInvoke(u.Eng, maxWait, func(done func([]byte, sim.Duration)) error {
		u.Clients[ci].Invoke(payload, done)
		return nil
	})
}

// SyncInvoke is every synchronous driver's InvokeSync: start submits one
// request with the given completion, and SyncInvoke steps the engine until
// it fires. It returns the result and latency, or a nil result, zero latency
// and start's error (nothing was submitted) or SyncWait's.
func SyncInvoke(eng *sim.Engine, maxWait sim.Duration, start func(done func([]byte, sim.Duration)) error) ([]byte, sim.Duration, error) {
	var result []byte
	var lat sim.Duration
	fired := false
	if err := start(func(res []byte, l sim.Duration) { result, lat, fired = res, l, true }); err != nil {
		return nil, 0, err
	}
	if err := SyncWait(eng, maxWait, func() bool { return fired }); err != nil {
		return nil, 0, err
	}
	return result, lat, nil
}

// SyncWait steps the engine until done reports true, the deadline passes
// (ErrTimeout), or the engine runs out of events (ErrStalled).
func SyncWait(eng *sim.Engine, maxWait sim.Duration, done func() bool) error {
	deadline := eng.Now().Add(maxWait)
	for !done() {
		if eng.Now() >= deadline {
			return ErrTimeout
		}
		if !eng.Step() {
			return ErrStalled
		}
	}
	return nil
}
