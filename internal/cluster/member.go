package cluster

// This file wires single cluster members: one node of the single-group
// layout, for deployments where every node is its own OS process on a real
// transport (cmd/ubft-node). Build wires all 2f+1+2fm+1+c nodes on one
// fabric; NewMember wires exactly one of the same Assembly against an
// injected fabric. Everything that must agree across processes (Layout,
// key registry, consensus configuration) derives deterministically from
// the shared Options, so no coordination service is needed.

import (
	"errors"
	"fmt"

	"repro/internal/app"
	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Role selects which kind of cluster node a Member is.
type Role string

// The three node roles of a uBFT deployment.
const (
	RoleReplica Role = "replica"
	RoleMemNode Role = "memnode"
	RoleClient  Role = "client"
)

// ParseRole validates a role string (the cmd/ubft-node flag surface).
func ParseRole(s string) (Role, error) {
	switch Role(s) {
	case RoleReplica, RoleMemNode, RoleClient:
		return Role(s), nil
	default:
		return "", fmt.Errorf("cluster: unknown role %q (want replica, memnode or client)", s)
	}
}

// ErrNoFabric reports a Member construction without an injected transport.
var ErrNoFabric = errors.New("cluster: member construction needs an injected transport fabric (nil given)")

// MemberSpec identifies which node of which deployment to assemble. The
// deployment-wide shape (F, Fm, MemNodes, NumClients, Seed, ...) lives in
// Options and must be identical across every member's process.
type MemberSpec struct {
	Role  Role
	Index int // replica i, memory node j, or client c (not the wire ID)

	// JoinNonce, when non-zero, boots a replica in the recovering state of
	// the cold-rejoin protocol (a process restarted after a crash) with it
	// as its incarnation counter, which must strictly exceed every nonce
	// this identity used before. Replica role only.
	JoinNonce uint64
}

// Member is one assembled node. Exactly one of Replica/MemNode/Client is
// non-nil, per Role.
type Member struct {
	Spec MemberSpec
	ID   ids.ID
	Eng  *sim.Engine

	Replica *consensus.Replica
	App     app.StateMachine
	MemNode *memnode.Node
	Client  *consensus.Client

	ReplicaIDs []ids.ID
	MemNodeIDs []ids.ID
	ClientIDs  []ids.ID
}

// NewMember assembles one node of the deployment described by opts on the
// injected fabric. Unlike NewUBFT it never panics: a nil fabric, a fabric
// without an engine, or an out-of-range index all fail with a clear error
// (these are operator inputs in a multi-process deployment, not
// assembly-time bugs in a test).
func NewMember(opts Options, fab transport.Fabric, spec MemberSpec) (*Member, error) {
	if fab == nil {
		return nil, ErrNoFabric
	}
	opts.Fabric = fab // validated (engine presence) by Normalize
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	a := singleGroup(opts, consensus.Defenses{})
	grp := a.Groups[0]
	m := &Member{Spec: spec, Eng: a.Eng, ReplicaIDs: grp.ReplicaIDs, MemNodeIDs: a.Layout.MemNodes, ClientIDs: a.Layout.Clients}

	i := spec.Index
	pick := func(pool []ids.ID) error { // bounds-check the index, fix the node ID
		if i < 0 || i >= len(pool) {
			return fmt.Errorf("cluster: %s index %d outside [0, %d)", spec.Role, i, len(pool))
		}
		m.ID = pool[i]
		return nil
	}
	var err error
	switch spec.Role {
	case RoleReplica:
		if err = pick(m.ReplicaIDs); err != nil {
			return nil, err
		}
		err = a.wireReplica(0, i, spec.JoinNonce)
		m.Replica, m.App = grp.Replicas[i], grp.Apps[i]
	case RoleMemNode:
		if err = pick(m.MemNodeIDs); err != nil {
			return nil, err
		}
		if m.MemNode, err = a.wireMemNode(i); err == nil {
			a.allocateGroup(0) // this node's share of every replica's regions
		}
	case RoleClient:
		if err = pick(m.ClientIDs); err != nil {
			return nil, err
		}
		m.Client, err = a.WireClient(i)
	default:
		err = fmt.Errorf("cluster: unknown member role %q", spec.Role)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Stop crash-stops a replica member (consensus.Replica.Stop); other roles
// are passive.
func (m *Member) Stop() {
	if m.Replica != nil {
		m.Replica.Stop()
	}
}
