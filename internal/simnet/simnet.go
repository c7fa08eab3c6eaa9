// Package simnet models the data-center network fabric of the paper's
// testbed: point-to-point authenticated, tamper-proof links (paper §2.4)
// over a single switch. Two link classes are provided: RDMA-class
// (kernel-bypass one-sided verbs, used by uBFT, Mu and the memory nodes)
// and VMA-class (kernel-bypass TCP, used by the MinBFT baseline, §7.2).
//
// The model implements eventual synchrony: before a configurable Global
// Stabilization Time (GST), messages suffer unbounded extra delays and may
// be dropped; after GST, delays are bounded by base latency + per-byte cost
// + bounded jitter. Links never corrupt or forge messages — authentication
// and tamper-proofness are assumptions of the paper — but Byzantine
// *processes* can of course send whatever payloads they like.
package simnet

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Handler consumes a message delivered to a node. from is the authenticated
// sender identity (links are authenticated, so it cannot be spoofed). It is
// the transport-contract handler type: *Node satisfies transport.Endpoint.
type Handler = transport.Handler

// Options configures a network's timing behaviour.
type Options struct {
	// BaseLatency is the one-way latency of a minimal message after GST.
	BaseLatency sim.Duration
	// Jitter is the half-width of uniform per-message jitter after GST.
	Jitter sim.Duration
	// HeaderBytes is the fixed framing overhead added to every message's
	// serialization cost.
	HeaderBytes int
	// GST is the global stabilization time. Before it, messages get up to
	// AsyncExtraMax additional delay and are dropped with AsyncDropProb.
	// A zero GST means the network is synchronous from the start.
	GST sim.Time
	// AsyncExtraMax bounds the extra pre-GST delay (the adversary's delay
	// budget in tests; "unbounded" in the model, finite in any finite run).
	AsyncExtraMax sim.Duration
	// AsyncDropProb is the pre-GST drop probability in [0,1).
	AsyncDropProb float64
}

// RDMAOptions returns the calibrated RDMA-fabric options (ConnectX-6 class).
func RDMAOptions() Options {
	return Options{
		BaseLatency: latmodel.WireBase,
		Jitter:      latmodel.WireJitter,
		HeaderBytes: 64,
	}
}

// TCPOptions returns the calibrated VMA kernel-bypass TCP options used by
// the MinBFT baseline.
func TCPOptions() Options {
	return Options{
		BaseLatency: latmodel.TCPKernelBypassBase,
		Jitter:      2 * latmodel.WireJitter,
		HeaderBytes: 96,
	}
}

// Network is a set of nodes connected pairwise. It is bound to one engine.
type Network struct {
	eng   *sim.Engine
	opts  Options
	nodes map[ids.ID]*Node

	parts map[[2]ids.ID]bool

	// lastArrival enforces per-directed-link FIFO ordering: RDMA reliable
	// connections and kernel-bypass TCP both deliver in order, and the
	// message-ring receiver (§6.2) depends on write ordering.
	lastArrival map[[2]ids.ID]sim.Time

	// Stats.
	MsgsSent  uint64
	BytesSent uint64
	Dropped   uint64
}

// New creates a network on eng with the given options.
func New(eng *sim.Engine, opts Options) *Network {
	return &Network{
		eng:         eng,
		opts:        opts,
		nodes:       make(map[ids.ID]*Node),
		parts:       make(map[[2]ids.ID]bool),
		lastArrival: make(map[[2]ids.ID]sim.Time),
	}
}

// Engine returns the engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Options returns the network's timing options.
func (n *Network) Options() Options { return n.opts }

// SetGST updates the global stabilization time (tests move it to inject
// asynchronous periods mid-run).
func (n *Network) SetGST(t sim.Time, extraMax sim.Duration, dropProb float64) {
	n.opts.GST = t
	n.opts.AsyncExtraMax = extraMax
	n.opts.AsyncDropProb = dropProb
}

// AddNode registers a node with the given identity. The returned node has
// no handler yet; messages delivered before SetHandler are dropped.
func (n *Network) AddNode(id ids.ID, name string) *Node {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %v", id))
	}
	nd := &Node{id: id, net: n, proc: sim.NewProc(n.eng, name)}
	nd.deliver = nd.deliverMsg
	n.nodes[id] = nd
	return nd
}

// AttachNode registers a node that reuses an existing process (so its busy
// time is shared with other components of the same simulated host).
func (n *Network) AttachNode(id ids.ID, proc *sim.Proc) *Node {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %v", id))
	}
	nd := &Node{id: id, net: n, proc: proc}
	nd.deliver = nd.deliverMsg
	n.nodes[id] = nd
	return nd
}

// Node looks up a registered node (nil if absent).
func (n *Network) Node(id ids.ID) *Node { return n.nodes[id] }

// RemoveNode unregisters a node so its identity can be re-registered by a
// restarted process (crash-restart chaos). In-flight messages to the old
// node were bound to its process at send time and die with it; messages
// sent after the identity is re-registered reach the new process. Callers
// must remove and re-add within one simulated event so no send observes
// the unregistered identity.
func (n *Network) RemoveNode(id ids.ID) { delete(n.nodes, id) }

// Fabric adapts the network to the transport.Fabric contract so the
// deployment layers (cluster, shard) can assemble clusters without naming
// the simulated backend. AsFabric is the constructor.
type Fabric struct{ net *Network }

// AsFabric wraps the network as a transport.Fabric.
func AsFabric(n *Network) Fabric { return Fabric{net: n} }

// Engine returns the engine the fabric's endpoints run on.
func (f Fabric) Engine() *sim.Engine {
	if f.net == nil {
		return nil
	}
	return f.net.eng
}

// Network returns the wrapped simulated network (deployment layers keep it
// accessible for partition/GST fault injection in tests).
func (f Fabric) Network() *Network { return f.net }

// NewEndpoint registers a node, satisfying transport.Fabric. Unlike
// AddNode it reports a duplicate id as an error rather than a panic.
func (f Fabric) NewEndpoint(id ids.ID, name string) (transport.Endpoint, error) {
	if f.net == nil {
		return nil, fmt.Errorf("simnet: fabric has no network")
	}
	if _, dup := f.net.nodes[id]; dup {
		return nil, fmt.Errorf("simnet: duplicate node %v", id)
	}
	return f.net.AddNode(id, name), nil
}

func pairKey(a, b ids.ID) [2]ids.ID {
	if a > b {
		a, b = b, a
	}
	return [2]ids.ID{a, b}
}

// Partition cuts the bidirectional link between a and b: messages are
// silently dropped until Heal.
func (n *Network) Partition(a, b ids.ID) { n.parts[pairKey(a, b)] = true }

// Heal restores the link between a and b.
func (n *Network) Heal(a, b ids.ID) { delete(n.parts, pairKey(a, b)) }

// HealAll removes every partition.
func (n *Network) HealAll() { n.parts = make(map[[2]ids.ID]bool) }

// Partitioned reports whether the a<->b link is cut.
func (n *Network) Partitioned(a, b ids.ID) bool { return n.parts[pairKey(a, b)] }

// delay computes the one-way delay for a message of size bytes sent now,
// and whether the message is dropped.
func (n *Network) delay(size int) (sim.Duration, bool) {
	o := n.opts
	d := o.BaseLatency + latmodel.PerByte(size+o.HeaderBytes)
	rng := n.eng.Rand()
	if o.Jitter > 0 {
		d += sim.Duration(rng.Int63n(int64(o.Jitter)))
	}
	if n.eng.Now() < o.GST {
		if o.AsyncDropProb > 0 && rng.Float64() < o.AsyncDropProb {
			return 0, true
		}
		if o.AsyncExtraMax > 0 {
			d += sim.Duration(rng.Int63n(int64(o.AsyncExtraMax)))
		}
	}
	return d, false
}

// Node is one endpoint of the network.
type Node struct {
	id      ids.ID
	net     *Network
	proc    *sim.Proc
	handler Handler
	// deliver is the long-lived sim.MsgHandler for this node, built once so
	// message delivery allocates no closure (see Send).
	deliver sim.MsgHandler
	inbound uint64
}

// deliverMsg runs on the destination process when a message is handed to
// the application: it pays the dispatch cost and invokes the handler.
func (nd *Node) deliverMsg(from int, payload []byte) {
	if nd.handler == nil {
		return
	}
	nd.proc.Charge(latmodel.DispatchCost)
	nd.handler(ids.ID(from), payload)
}

// ID returns the node's identity.
func (nd *Node) ID() ids.ID { return nd.id }

// Proc returns the node's simulated process.
func (nd *Node) Proc() *sim.Proc { return nd.proc }

// Inbound returns how many messages have been sent towards this node,
// delivered or not.
func (nd *Node) Inbound() uint64 { return nd.inbound }

// SetHandler installs the message handler.
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

// Send transmits payload to the node identified by to. The sender pays the
// NIC-posting dispatch cost; the wire delay, drops and partitions are
// applied by the network; the receiver pays a dispatch cost and then runs
// its handler, queuing behind any in-progress computation.
//
// The payload slice is delivered as-is, uncopied: it is immutable once sent.
// A message-ring frame is one slice shared by the sender's mirror, every
// receiver and the broadcaster's self-delivery, and it goes out again on
// retransmission.
func (nd *Node) Send(to ids.ID, payload []byte) {
	if nd.proc.Crashed() {
		return
	}
	dst := nd.net.nodes[to]
	if dst == nil {
		// A crashed-and-removed host: packets to it vanish, exactly like a
		// partition (clients and peers keep broadcasting to a dead replica
		// until it rejoins). Counted as drops.
		nd.proc.Charge(latmodel.DispatchCost)
		nd.net.MsgsSent++
		nd.net.Dropped++
		return
	}
	nd.proc.Charge(latmodel.DispatchCost)
	nd.net.MsgsSent++
	dst.inbound++
	nd.net.BytesSent += uint64(len(payload) + nd.net.opts.HeaderBytes)
	if nd.net.Partitioned(nd.id, to) {
		nd.net.Dropped++
		return
	}
	d, dropped := nd.net.delay(len(payload))
	if dropped {
		nd.net.Dropped++
		return
	}
	from := nd.id
	// The message departs when the sender's CPU finishes its queued work:
	// a handler that computed (signed, hashed, copied) before sending pays
	// that time before the NIC sees the message.
	depart := nd.proc.BusyUntil()
	if now := nd.net.eng.Now(); depart < now {
		depart = now
	}
	// FIFO per directed link: a message never overtakes an earlier one.
	arrive := depart.Add(d)
	link := [2]ids.ID{from, to}
	if last := nd.net.lastArrival[link]; arrive < last {
		arrive = last
	}
	nd.net.lastArrival[link] = arrive
	// Closure-free delivery: the engine carries (handler, from, payload) in
	// the event record and queues once behind the receiver's busy horizon
	// at arrival, replicating the arrive-then-deliver two-step.
	nd.net.eng.PostMsg(arrive, dst.proc, dst.deliver, int(from), payload)
}

// Broadcast sends payload to every id in tos (convenience; each send is an
// independent message).
func (nd *Node) Broadcast(tos []ids.ID, payload []byte) {
	for _, to := range tos {
		if to == nd.id {
			continue
		}
		nd.Send(to, payload)
	}
}
