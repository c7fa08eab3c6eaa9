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
//
// Node.Send is the one place a frame's fate is decided, in this order:
//  1. the sender's Outbound rewrite (SetOutbound), set only on a Byzantine
//     node: each frame it returns goes through steps 2–5 as its own send;
//  2. a crashed sender sends nothing, and a frame to an absent node is lost;
//  3. a partitioned link loses the frame;
//  4. the network's Rule (SetRule) delivers, drops, delays or holds it;
//  5. the model's jitter and pre-GST drop and delay draws.
//
// Steps 1–4 draw no random number, so a rule that drops nothing leaves a
// run bit-identical. A held frame stalls its directed link the way a stalled
// RDMA reliable connection does: later frames on that link queue behind it,
// and Release sends the queue in order, as if sent at release (through steps
// 2, 3 and 5 again, not the rule). Frames whose sender crashed before the
// release are lost. A rule runs inside Send, so a rule that kills or
// restarts a node schedules that on the engine instead of doing it there.
//
// A delivered frame waits for the receiving process's computation in
// progress and costs it a dispatch, unless the receiver's intake claims it
// (Node.SetIntake): then it is handled the instant it arrives. A frame sent
// from an event on another core of the sending host (sim.Proc.NewCore)
// leaves the instant it is sent, its post paid by that core.
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

	rule     Rule
	outbound map[ids.ID]Outbound
	held     map[[2]ids.ID][]heldFrame // per directed link, in send order

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
		outbound:    make(map[ids.ID]Outbound),
		held:        make(map[[2]ids.ID][]heldFrame),
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
	return n.AttachNode(id, sim.NewProc(n.eng, name))
}

// AttachNode registers a node that reuses an existing process (so its busy
// time is shared with other components of the same simulated host).
func (n *Network) AttachNode(id ids.ID, proc *sim.Proc) *Node {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %v", id))
	}
	nd := &Node{id: id, net: n, proc: proc}
	nd.deliver, nd.take = nd.deliverMsg, nd.takeMsg
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

// Fate is a Rule's verdict on one frame.
type Fate uint8

const (
	Deliver Fate = iota // deliver, later by the rule's extra delay if any
	Drop                // lose the frame (counted in Dropped)
	Hold                // stall the directed link until Release
)

// Rule decides the fate of every frame that reaches a live, unpartitioned
// link (step 4 of the package doc); the duration is a delivered frame's
// extra delay. It must not mutate frame.
type Rule func(from, to ids.ID, frame []byte) (Fate, sim.Duration)

// SetRule installs the network's one rule (nil: deliver everything).
func (n *Network) SetRule(r Rule) { n.rule = r }

// Outbound rewrites one frame a Byzantine node sends: nil drops it, one
// element forwards it (possibly mutated), several also inject. Returned
// frames must be fresh slices or the unmodified input.
type Outbound func(to ids.ID, frame []byte) [][]byte

// SetOutbound makes node id Byzantine: every frame it sends goes through
// out first. It holds for every incarnation of id, so a node restarted
// under the same identity keeps its rewrite.
func (n *Network) SetOutbound(id ids.ID, out Outbound) { n.outbound[id] = out }

// Byzantine reports whether node id has an outbound rewrite.
func (n *Network) Byzantine(id ids.ID) bool { return n.outbound[id] != nil }

type heldFrame struct {
	src   *Node
	frame []byte
}

// Release sends the frames held on the directed link from -> to, in order,
// as if sent now. Those whose sender crashed since, whose destination is
// absent or whose link is partitioned are lost.
func (n *Network) Release(from, to ids.ID) {
	link, dst := [2]ids.ID{from, to}, n.nodes[to]
	for _, h := range n.held[link] {
		if dst != nil && !h.src.proc.Crashed() && !n.Partitioned(from, to) {
			n.transmit(h.src, dst, h.frame, n.eng.Now(), 0)
		} else {
			n.Dropped++
		}
	}
	delete(n.held, link)
}

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
	// intake claims the frames taken on arrival (SetIntake).
	intake func(frame []byte) bool
	// deliver and take are the long-lived sim.MsgHandlers for this node,
	// built once so message delivery allocates no closure (see Send).
	deliver, take sim.MsgHandler
	inbound       uint64
}

// deliverMsg runs on the destination process when a message is handed to
// the application: it pays the dispatch cost and invokes the handler.
func (nd *Node) deliverMsg(from int, payload []byte) {
	if nd.handler == nil {
		return
	}
	nd.proc.Charge(latmodel.DispatchCost)
	nd.takeMsg(from, payload)
}

// takeMsg hands a frame the intake claimed to the handler, at arrival and
// uncharged: the core the handler gives it to pays its dispatch.
func (nd *Node) takeMsg(from int, payload []byte) {
	if nd.handler != nil {
		nd.handler(ids.ID(from), payload)
	}
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

// SetIntake installs the claim on frames taken on arrival
// (transport.Endpoint). It is asked once per frame, when the frame is put on
// the wire.
func (nd *Node) SetIntake(claim func(frame []byte) bool) { nd.intake = claim }

// Handler returns the installed message handler (nil before SetHandler), so
// an observer can wrap it and see every delivery.
func (nd *Node) Handler() Handler { return nd.handler }

// Send transmits payload to the node identified by to, deciding its fate
// in the order of the package doc. The sender pays the NIC-posting dispatch
// cost; the receiver pays a dispatch cost and then runs its handler,
// queuing behind any in-progress computation, unless its intake claims the
// frame (SetIntake). A send made from an event on another core of the host
// (sim.Proc.NewCore) is that core's post, paid with the work that ended in
// the send: nothing is charged here, and the frame leaves at once.
//
// The payload slice is delivered as-is, uncopied, and is not written while a
// transmission of it is undelivered (transport.Endpoint). A message-ring
// frame is one slice shared by the sender's mirror, every receiver and the
// broadcaster's self-delivery, and it goes out again on retransmission.
func (nd *Node) Send(to ids.ID, payload []byte) {
	if out := nd.net.outbound[nd.id]; out != nil {
		for _, f := range out(to, payload) {
			nd.send(to, f)
		}
		return
	}
	nd.send(to, payload)
}

func (nd *Node) send(to ids.ID, payload []byte) {
	if nd.proc.Crashed() {
		return
	}
	n := nd.net
	cur := n.eng.Running()
	posted := cur != nil && cur != nd.proc && cur.Host() == nd.proc
	if !posted {
		nd.proc.Charge(latmodel.DispatchCost)
	}
	n.MsgsSent++
	dst := n.nodes[to]
	if dst == nil {
		// A crashed-and-removed host: packets to it vanish, exactly like a
		// partition (clients and peers keep broadcasting to a dead replica
		// until it rejoins). Counted as drops.
		n.Dropped++
		return
	}
	dst.inbound++
	n.BytesSent += uint64(len(payload) + n.opts.HeaderBytes)
	if n.Partitioned(nd.id, to) {
		n.Dropped++
		return
	}
	fate, extra := Deliver, sim.Duration(0)
	if n.rule != nil {
		fate, extra = n.rule(nd.id, to, payload)
	}
	switch link := [2]ids.ID{nd.id, to}; {
	case fate == Drop:
		n.Dropped++
		return
	case fate == Hold || len(n.held) > 0 && len(n.held[link]) > 0:
		n.held[link] = append(n.held[link], heldFrame{nd, payload})
		return
	}
	// The message departs when the sender's CPU finishes its queued work:
	// a handler that computed (signed, hashed, copied) before sending pays
	// that time before the NIC sees the message. A core's post leaves now.
	depart := n.eng.Now()
	if !posted {
		depart = max(nd.proc.BusyUntil(), depart)
	}
	n.transmit(nd, dst, payload, depart, extra)
}

// transmit puts payload on the wire at depart: step 5 of the package doc.
func (n *Network) transmit(src, dst *Node, payload []byte, depart sim.Time, extra sim.Duration) {
	d, dropped := n.delay(len(payload))
	if dropped {
		n.Dropped++
		return
	}
	// FIFO per directed link: a message never overtakes an earlier one.
	arrive := depart.Add(d + extra)
	link := [2]ids.ID{src.id, dst.id}
	if last := n.lastArrival[link]; arrive < last {
		arrive = last
	}
	n.lastArrival[link] = arrive
	// Closure-free delivery: the engine carries (handler, from, payload) in
	// the event record and queues once behind the receiver's busy horizon
	// at arrival, replicating the arrive-then-deliver two-step. A frame the
	// receiver's intake claims runs at arrival instead.
	if dst.intake != nil && dst.intake(payload) {
		n.eng.TakeMsg(arrive, dst.proc, dst.take, int(src.id), payload)
		return
	}
	n.eng.PostMsg(arrive, dst.proc, dst.deliver, int(src.id), payload)
}
