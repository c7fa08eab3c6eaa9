package cluster

// This file is the one deployment assembler. A deployment is a Layout
// (who exists, as pure data) wired node by node onto a transport.Fabric by
// an Assembly; Build wires every node of the one-group layout, NewMember
// wires a single node of it on an injected fabric, and shard.Build wires
// every node of the S-group layout. Nothing else in the repository creates
// a memory node, allocates a group's SWMR regions, constructs a uBFT
// replica or kills/restarts one.

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// The two ID numberings. A single group keeps the paper-testbed numbering
// every example, test and ubft-node peer table has used since PR 1; a
// sharded deployment needs room for S groups in one namespace. Both place
// replica i of group s at s*replicaStride+i (validate caps 2F+1 at 64, so
// a group never outgrows its stride).
const (
	replicaStride = 100

	memNodeIDBase = 100 // single group: memory nodes at 100.., clients at 200..
	clientIDBase  = 200

	shardedMemNodeIDBase = 100_000 // sharded: the shared pool at 100_000..
	shardedClientIDBase  = 200_000 // and the shard-aware clients at 200_000..

	// MaxShards is how many groups fit below the sharded memory-node base.
	MaxShards = shardedMemNodeIDBase / replicaStride
)

// Layout is a deployment's identity plan as pure data: every process of a
// multi-process deployment derives the same Layout from the shared options,
// which is what lets peer tables and key registries agree without a
// coordination service.
type Layout struct {
	Groups   [][]ids.ID // Groups[g][i] is replica i of consensus group g
	MemNodes []ids.ID   // the memory-node pool, shared by every group
	Clients  []ids.ID
}

// SingleGroupLayout numbers one group the way the paper's testbed is
// numbered here: replicas at 0.., memory nodes at 100.., clients at 200...
// memNodes overrides the pool size when positive (any size in
// [Fm+1, 2Fm+1] keeps SWMR quorum intersection); 0 takes the paper's 2Fm+1.
func SingleGroupLayout(f, fm, memNodes, clients int) Layout {
	return numbered(1, f, fm, memNodes, clients, memNodeIDBase, clientIDBase)
}

// ShardedLayout numbers S groups over one shared pool: replica i of shard
// s at s*100+i, memory nodes at 100_000.., clients at 200_000...
func ShardedLayout(shards, f, fm, memNodes, clients int) Layout {
	return numbered(shards, f, fm, memNodes, clients, shardedMemNodeIDBase, shardedClientIDBase)
}

func numbered(groups, f, fm, memNodes, clients, memBase, clientBase int) Layout {
	if memNodes <= 0 {
		memNodes = 2*fm + 1
	}
	run := func(base, n int) []ids.ID {
		out := make([]ids.ID, n)
		for i := range out {
			out[i] = ids.ID(base + i)
		}
		return out
	}
	l := Layout{MemNodes: run(memBase, memNodes), Clients: run(clientBase, clients)}
	for s := 0; s < groups; s++ {
		l.Groups = append(l.Groups, run(s*replicaStride, 2*f+1))
	}
	return l
}

// Signers lists the identities that hold signing keys, in the order the
// registry is seeded with: every group's replicas, then the clients (memory
// nodes do not sign).
func (l Layout) Signers() []ids.ID {
	var all []ids.ID
	for _, reps := range l.Groups {
		all = append(all, reps...)
	}
	return append(all, l.Clients...)
}

// Group is one consensus group of an assembled deployment. Replicas and
// Apps are indexed like ReplicaIDs; an entry is nil until that replica is
// wired (a Member wires one) and is replaced in place by RestartReplica.
type Group struct {
	Index      int
	ReplicaIDs []ids.ID
	Replicas   []*consensus.Replica
	Apps       []app.StateMachine

	joinNonces []uint64     // per-replica incarnation counter for cold rejoin
	oracle     *groupOracle // checks every decision and execution (oracle.go)
}

// Leader returns the group's current leader replica.
func (g *Group) Leader() *consensus.Replica {
	for _, r := range g.Replicas {
		if r.IsLeader() {
			return r
		}
	}
	return g.Replicas[0]
}

// DecidedCount returns the slots decided by the group (max across its
// replicas, which agree up to propagation lag).
func (g *Group) DecidedCount() int {
	best := 0
	for _, r := range g.Replicas {
		if n := r.DecidedCount(); n > best {
			best = n
		}
	}
	return best
}

// Assembly wires the nodes of a Layout onto one fabric. It owns what every
// node of a deployment must share — the fabric (defaulted to a fresh
// deterministic simnet), the signer registry, the per-group consensus
// configuration, the per-group agreement oracle every replica reports to
// (oracle.go) and the switched-off Defenses (zero outside test harnesses
// and ablations) — and has exactly one function per kind of node.
type Assembly struct {
	Eng      *sim.Engine
	Net      *simnet.Network // nil when the fabric is not simnet-backed
	Registry *xcrypto.Registry
	Layout   Layout
	Groups   []*Group
	MemNodes []*memnode.Node // the memory nodes wired here, in wiring order

	fab      transport.Fabric
	opts     Options // normalized; configures every group alike
	newApp   func(group int) app.StateMachine
	defenses consensus.Defenses
}

// NewAssembly prepares the wiring of layout under opts, which the caller
// has normalized. A nil opts.Fabric takes a fresh RDMA-class simulated
// fabric seeded with opts.Seed. An injected simnet.Fabric keeps its network
// reachable (Net) for partition, rule, kill and restart fault injection; its
// Byzantine nodes (simnet.Network.Byzantine) are exempt from the agreement
// checks. off is the set of protocol defenses to switch OFF in every
// replica: consensus.Defenses{} everywhere but the BuildWithDefenses
// entry points.
func NewAssembly(opts Options, layout Layout, newApp func(group int) app.StateMachine, off consensus.Defenses) *Assembly {
	a := &Assembly{Layout: layout, fab: opts.Fabric, opts: opts, newApp: newApp, defenses: off}
	if a.fab == nil {
		a.Eng = sim.NewEngine(opts.Seed)
		a.Net = simnet.New(a.Eng, simnet.RDMAOptions())
		a.fab = simnet.AsFabric(a.Net)
	} else {
		a.Eng = a.fab.Engine()
		if sf, ok := a.fab.(simnet.Fabric); ok {
			a.Net = sf.Network()
		}
	}
	a.Registry = xcrypto.NewRegistry(opts.Seed+1, layout.Signers())
	for g, reps := range layout.Groups {
		a.Groups = append(a.Groups, &Group{
			Index:      g,
			ReplicaIDs: reps,
			Replicas:   make([]*consensus.Replica, len(reps)),
			Apps:       make([]app.StateMachine, len(reps)),
			joinNonces: make([]uint64, len(reps)),
			oracle:     newGroupOracle(g, a.Eng, a.Net, opts.Window),
		})
	}
	return a
}

// alive reports whether node id is wired and not crashed; without a
// simulated network every wired node is.
func (a *Assembly) alive(id ids.ID) bool {
	if a.Net == nil {
		return true
	}
	nd := a.Net.Node(id)
	return nd != nil && !nd.Proc().Crashed()
}

// wireHost creates the endpoint of one node and its channel router.
func (a *Assembly) wireHost(id ids.ID, name string) (*router.Router, error) {
	ep, err := a.fab.NewEndpoint(id, name)
	if err != nil {
		return nil, fmt.Errorf("cluster: wiring %s: %w", name, err)
	}
	return router.New(ep), nil
}

// wireMemNode wires memory node j of the pool.
func (a *Assembly) wireMemNode(j int) (*memnode.Node, error) {
	rt, err := a.wireHost(a.Layout.MemNodes[j], fmt.Sprintf("mem%d", j))
	if err != nil {
		return nil, err
	}
	mn := memnode.New(rt)
	a.MemNodes = append(a.MemNodes, mn)
	return mn, nil
}

// config is the single Options -> consensus.Config translation. Group g's
// SWMR regions sit at g region spans into every memory node, so groups
// sharing the pool can never overlap (memnode.Allocate panics if they do).
func (a *Assembly) config(g int, self ids.ID, sm app.StateMachine) consensus.Config {
	o := &a.opts
	cfg := consensus.Config{
		Self:              self,
		Replicas:          a.Layout.Groups[g],
		MemNodes:          a.Layout.MemNodes,
		Fm:                o.Fm,
		Window:            o.Window,
		Tail:              o.Tail,
		MsgCap:            o.MsgCap,
		SlowPathDelay:     o.SlowPathDelay,
		CTBMode:           o.CTBMode,
		ViewChangeTimeout: o.ViewChangeTimeout,
		App:               sm,
	}
	cfg.RegionOffset = memnode.RegionID(g) * cfg.RegionSpan()
	return cfg
}

// allocateGroup allocates group g's SWMR regions on every memory node
// wired so far: the management plane runs before the protocol (§2.3), and
// in a multi-process deployment each memory node allocates locally.
func (a *Assembly) allocateGroup(g int) {
	consensus.AllocateCluster(a.config(g, a.Layout.Groups[g][0], a.newApp(g)), a.MemNodes)
}

// wireReplica wires replica i of group g with a fresh application
// instance: warm (nonce 0) at deployment start, or in the recovering state
// of the cold-rejoin protocol with an incarnation nonce strictly above
// every one that identity used before.
func (a *Assembly) wireReplica(g, i int, joinNonce uint64) error {
	grp := a.Groups[g]
	rt, err := a.wireHost(grp.ReplicaIDs[i], fmt.Sprintf("s%dr%d", g, i))
	if err != nil {
		return err
	}
	sm := a.newApp(g)
	cfg := a.config(g, grp.ReplicaIDs[i], sm)
	cfg.JoinNonce = joinNonce
	grp.Apps[i] = sm
	grp.Replicas[i] = consensus.NewReplica(cfg, consensus.Deps{RT: rt, Registry: a.Registry, Defenses: a.defenses,
		Decided: grp.oracle.decided, Executed: grp.oracle.executed})
	return nil
}

// WireClient wires client c: one consensus client that can invoke every
// group of the layout.
func (a *Assembly) WireClient(c int) (*consensus.Client, error) {
	rt, err := a.wireHost(a.Layout.Clients[c], fmt.Sprintf("client%d", c))
	if err != nil {
		return nil, err
	}
	return consensus.NewMultiClient(rt, a.Layout.Groups), nil
}

// WireNodes wires every memory node and every replica of the layout in the
// canonical order: the pool, then group by group its region allocation
// and its replicas. (Endpoint creation order feeds the simulated network,
// so it is part of what makes a run a pure function of its seed.)
func (a *Assembly) WireNodes() error {
	for j := range a.Layout.MemNodes {
		if _, err := a.wireMemNode(j); err != nil {
			return err
		}
	}
	for g, reps := range a.Layout.Groups {
		a.allocateGroup(g)
		for i := range reps {
			if err := a.wireReplica(g, i, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// KillReplica crash-stops replica i of group g (consensus.Replica.Stop) and
// unregisters its network identity so RestartReplica can rebind it.
// Requires a simnet-backed deployment.
func (a *Assembly) KillReplica(g, i int) error {
	id := a.Groups[g].ReplicaIDs[i]
	switch {
	case a.Net == nil:
		return fmt.Errorf("cluster: KillReplica requires a simulated network")
	case a.Net.Node(id) == nil:
		return fmt.Errorf("cluster: replica %v already killed", id)
	}
	a.Groups[g].Replicas[i].Stop()
	a.Net.RemoveNode(id)
	return nil
}

// KillMemNode crash-stops memory node j of the pool for good
// (memnode.Node.Crash): it serves no request again, and there is no
// restart.
func (a *Assembly) KillMemNode(j int) error {
	switch {
	case j < 0 || j >= len(a.MemNodes):
		return fmt.Errorf("cluster: no memory node %d", j)
	case a.MemNodes[j].Crashed():
		return fmt.Errorf("cluster: memory node %v already killed", a.MemNodes[j].ID())
	}
	a.MemNodes[j].Crash()
	return nil
}

// RestartReplica boots a fresh replica process for slot i of group g after
// KillReplica: a new endpoint on the same fabric (a Byzantine identity
// keeps its outbound rewrite), a fresh application instance, the
// group's own region span, and cold-rejoin mode with a bumped incarnation
// nonce. The replica probes the cluster, pulls the f+1-vouched snapshot
// and observes until the first post-join stable checkpoint before
// participating again.
func (a *Assembly) RestartReplica(g, i int) error {
	grp := a.Groups[g]
	id := grp.ReplicaIDs[i]
	switch {
	case a.Net == nil:
		return fmt.Errorf("cluster: RestartReplica requires a simulated network")
	case a.Net.Node(id) != nil:
		return fmt.Errorf("cluster: replica %v still registered (KillReplica first)", id)
	}
	grp.joinNonces[i]++
	return a.wireReplica(g, i, grp.joinNonces[i])
}

// Stop crash-stops every replica wired here (consensus.Replica.Stop).
func (a *Assembly) Stop() {
	for _, grp := range a.Groups {
		for _, r := range grp.Replicas {
			if r != nil {
				r.Stop()
			}
		}
	}
}
