package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Frame body layout (after the u32 length prefix):
//
//	u64 seq | i64 from | i64 to | payload...
//
// seq is per directed (from, to) link, monotone across reconnects — the
// receiver's duplicate/staleness filter. Each link's counter starts at
// the sender process's boot epoch (nanoseconds at Listen time) rather
// than 1, so a crashed-and-restarted process emits seqs strictly above
// anything its previous incarnation reached and the filter at every
// receiver stays valid across the rebirth: a predecessor advances its
// counter by one per frame from its own epoch, and no incarnation sends
// frames faster than one per nanosecond. A fresh connection opens with a
// hello frame (magic, version) so garbage and cross-version peers are
// rejected at accept time.
const (
	frameHeaderLen = 24
	helloMagic     = 0x75424654 // "uBFT"
	helloVersion   = 1
)

// The transport runs at one tuning. Every per-peer link uses these values.
const (
	// QueueSlots bounds each per-peer write queue; overflow overwrites the
	// oldest queued frame (tail-drop, the message-ring overwrite model).
	QueueSlots = 1024
	// maxFrame bounds an accepted frame, header included.
	maxFrame = frameHeaderLen + transport.MaxFrame
	// dialBackoffMin is the first redial wait; each failed attempt doubles
	// it up to ProbeInterval.
	dialBackoffMin = 2 * time.Millisecond
	// ProbeInterval caps the redial backoff, so it is also the probe
	// period of an evicted peer. A probe that connects (and gets its hello
	// accepted) re-admits the peer.
	ProbeInterval = 500 * time.Millisecond
	// dialTimeout bounds one dial attempt.
	dialTimeout = time.Second
	// writeStallTimeout is the per-frame write deadline: a peer that stops
	// draining its socket for this long is declared stalled, and the
	// connection is torn down and redialed.
	writeStallTimeout = 2 * time.Second
	// EvictAfterFails is the consecutive-failure threshold (failed dials and
	// write stalls both count) at which a peer is evicted: its queue is
	// trimmed to the newest frame and new frames are fast-dropped.
	EvictAfterFails = 8
)

// Options configures one fabric attachment.
type Options struct {
	// ListenAddr is the local TCP address to bind ("127.0.0.1:0" for an
	// ephemeral port; read the result back with Addr).
	ListenAddr string
	// Resolve maps a node ID to its process's listen address. Dial-time
	// resolution: a peer that is not resolvable yet is retried with
	// backoff, so start order does not matter. Must be safe for
	// concurrent use.
	Resolve func(ids.ID) (string, bool)
}

// Stats are cumulative transport counters (atomically updated; read with
// Stats()).
type Stats struct {
	MsgsSent   uint64 // frames enqueued for transmission (incl. loopback)
	BytesSent  uint64 // payload bytes enqueued
	Dropped    uint64 // tail-dropped frames (queue overflow, loopback full)
	Redials    uint64 // reconnect attempts after a broken/stalled conn
	Stalls     uint64 // write-stall teardowns
	Dups       uint64 // inbound frames suppressed by the seq filter
	Rejected   uint64 // malformed/unroutable inbound frames or conns
	QueueFull  uint64 // ring-overflow overwrites (backpressure; subset of Dropped)
	Evictions  uint64 // peers declared dead after EvictAfterFails failures
	Readmits   uint64 // evicted peers revived by a successful probe
	EvictDrops uint64 // frames dropped by an eviction or while evicted (subset of Dropped)
}

// Net is one process's attachment to the fabric: a listener, the local
// nodes, and the outbound links. It implements transport.Fabric.
type Net struct {
	host *Host
	opts Options
	ln   net.Listener

	mu     sync.Mutex
	local  map[ids.ID]*Node
	links  map[ids.ID]*peerLink
	conns  map[net.Conn]struct{} // accepted conns, closed on shutdown
	closed bool

	// lastSeq is the inbound duplicate/staleness filter, keyed by the
	// directed (from, to) pair. Host-loop goroutine only.
	lastSeq map[[2]ids.ID]uint64

	// seqEpoch seeds every outbound link's seq counter (see the frame
	// layout comment): wall-clock nanoseconds at Listen time, so a reborn
	// process outruns its predecessor's high-water marks at the receivers.
	seqEpoch uint64

	stop chan struct{}
	wg   sync.WaitGroup

	msgsSent, bytesSent, dropped    atomic.Uint64
	redials, stalls, dups, rejected atomic.Uint64
	queueFull, evictions            atomic.Uint64
	readmits, evictDrops            atomic.Uint64
}

// Listen binds opts.ListenAddr and starts accepting. The Net serves
// inbound traffic for every node later added with NewEndpoint; frames for
// unknown local nodes are rejected.
func Listen(h *Host, opts Options) (*Net, error) {
	if opts.Resolve == nil {
		return nil, fmt.Errorf("nettrans: Options.Resolve is required (static peer table)")
	}
	// Retry EADDRINUSE briefly: in a fleet with pre-allocated ports a
	// peer's dial probe can transiently self-connect to our port before we
	// bind it (see peerLink.dial), and the port frees as soon as that
	// probe notices and closes.
	var ln net.Listener
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", opts.ListenAddr)
		if err == nil {
			break
		}
		if !errors.Is(err, syscall.EADDRINUSE) || time.Now().After(deadline) {
			return nil, fmt.Errorf("nettrans: listen %s: %w", opts.ListenAddr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	n := &Net{
		host:     h,
		opts:     opts,
		ln:       ln,
		local:    make(map[ids.ID]*Node),
		links:    make(map[ids.ID]*peerLink),
		conns:    make(map[net.Conn]struct{}),
		lastSeq:  make(map[[2]ids.ID]uint64),
		seqEpoch: uint64(time.Now().UnixNano()),
		stop:     make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address (resolves ":0" allocations).
func (n *Net) Addr() string { return n.ln.Addr().String() }

// Engine implements transport.Fabric.
func (n *Net) Engine() *sim.Engine { return n.host.Engine() }

// Stats returns a snapshot of the transport counters.
func (n *Net) Stats() Stats {
	return Stats{
		MsgsSent:   n.msgsSent.Load(),
		BytesSent:  n.bytesSent.Load(),
		Dropped:    n.dropped.Load(),
		Redials:    n.redials.Load(),
		Stalls:     n.stalls.Load(),
		Dups:       n.dups.Load(),
		Rejected:   n.rejected.Load(),
		QueueFull:  n.queueFull.Load(),
		Evictions:  n.evictions.Load(),
		Readmits:   n.readmits.Load(),
		EvictDrops: n.evictDrops.Load(),
	}
}

// PeerState is the health snapshot of one outbound link.
type PeerState struct {
	Evicted     bool // fast-dropping; probing every ProbeInterval
	ConsecFails int  // consecutive failed dials / stalled writes
	Queued      int  // frames waiting in the ring
}

// Peers snapshots the health of every outbound link this attachment has
// opened (links are created lazily on first send to a remote node).
func (n *Net) Peers() map[ids.ID]PeerState {
	n.mu.Lock()
	links := make(map[ids.ID]*peerLink, len(n.links))
	for id, l := range n.links {
		links[id] = l
	}
	n.mu.Unlock()
	out := make(map[ids.ID]PeerState, len(links))
	for id, l := range links {
		out[id] = l.state()
	}
	return out
}

// NewEndpoint registers a local node, satisfying transport.Fabric.
func (n *Net) NewEndpoint(id ids.ID, name string) (transport.Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("nettrans: attachment closed")
	}
	if _, dup := n.local[id]; dup {
		return nil, fmt.Errorf("nettrans: duplicate local node %v", id)
	}
	nd := &Node{
		id:   id,
		net:  n,
		proc: n.host.NewProc(name),
		seqs: make(map[ids.ID]uint64),
	}
	n.local[id] = nd
	return nd, nil
}

// Close tears the attachment down: listener, accepted connections, link
// writers. Safe to call twice.
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	err := n.ln.Close()
	for c := range n.conns {
		c.Close()
	}
	links := make([]*peerLink, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.close()
	}
	n.wg.Wait()
	return err
}

// BreakConns force-closes every open connection (both accepted and dialed)
// without closing the attachment: writers redial with backoff. Fault
// injection for partition/reconnect tests.
func (n *Net) BreakConns() {
	n.mu.Lock()
	for c := range n.conns {
		c.Close()
	}
	links := make([]*peerLink, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.breakConn()
	}
}

// link returns (creating on demand) the outbound link to remote node `to`.
func (n *Net) link(to ids.ID) *peerLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	l := n.links[to]
	if l == nil {
		l = newPeerLink(n, to)
		n.links[to] = l
		n.wg.Add(1)
		go l.run()
	}
	return l
}

func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
			}
			continue
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.conns[c] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readConn(c)
	}
}

func (n *Net) dropConn(c net.Conn) {
	c.Close()
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// readConn validates the hello and then streams frames into the host loop.
// Payload buffers are freshly allocated per frame and never written again:
// a delivered message is immutable for as long as anyone retains it (the
// contract the zero-copy protocol layers above rely on). A local destination
// gets the sender's own slice (Node.Send), immutable once sent as well.
func (n *Net) readConn(c net.Conn) {
	defer n.wg.Done()
	defer n.dropConn(c)
	var hdr [8]byte
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(c, hdr[:5]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != helloMagic || hdr[4] != helloVersion {
		n.rejected.Add(1)
		return
	}
	c.SetReadDeadline(time.Time{})
	for {
		if _, err := io.ReadFull(c, hdr[:4]); err != nil {
			return
		}
		size := int(binary.LittleEndian.Uint32(hdr[:4]))
		if size < frameHeaderLen || size > maxFrame {
			n.rejected.Add(1)
			return // framing lost or hostile peer: drop the conn
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(c, body); err != nil {
			return
		}
		f := inFrame{
			net:     n,
			seq:     binary.LittleEndian.Uint64(body[0:8]),
			from:    int64(binary.LittleEndian.Uint64(body[8:16])),
			to:      int64(binary.LittleEndian.Uint64(body[16:24])),
			payload: body[frameHeaderLen:],
		}
		select {
		case n.host.inbox <- f: // backpressure: the TCP window throttles the peer
		case <-n.stop:
			return
		}
	}
}

// dispatch runs on the host loop goroutine: duplicate suppression, sender
// sanity, handler delivery.
func (n *Net) dispatch(f inFrame) {
	from, to := ids.ID(f.from), ids.ID(f.to)
	nd := n.local[to] // host-loop goroutine; registration happens before Run
	if nd == nil {
		n.rejected.Add(1)
		return
	}
	if n.local[from] != nil && f.seq == 0 {
		// Loopback frames skip the seq filter: they never traverse a
		// connection, cannot be duplicated, and arrive in send order.
		nd.deliver(from, f.payload)
		return
	}
	if _, impersonation := n.local[from]; impersonation {
		// A remote frame claiming one of our own identities is forged.
		n.rejected.Add(1)
		return
	}
	link := [2]ids.ID{from, to}
	if last := n.lastSeq[link]; f.seq <= last {
		// Duplicate or a stale frame racing a reconnect: the per-link
		// sequence is monotone, so anything at or below the high-water
		// mark has been delivered (or superseded) already.
		n.dups.Add(1)
		return
	}
	n.lastSeq[link] = f.seq
	nd.deliver(from, f.payload)
}

// Node is one local endpoint (transport.Endpoint).
type Node struct {
	id      ids.ID
	net     *Net
	proc    *sim.Proc
	handler transport.Handler

	mu   sync.Mutex
	seqs map[ids.ID]uint64 // next outbound seq per destination
}

// ID returns the node's identity.
func (nd *Node) ID() ids.ID { return nd.id }

// Proc returns the node's process on the host engine.
func (nd *Node) Proc() *sim.Proc { return nd.proc }

// SetHandler installs the message handler (before Host.Run starts).
func (nd *Node) SetHandler(h transport.Handler) { nd.handler = h }

// SetIntake is a no-op (transport.Endpoint): the host loop has no busy
// horizon and charges no dispatch, so every frame is taken on arrival.
func (nd *Node) SetIntake(func(frame []byte) bool) {}

func (nd *Node) deliver(from ids.ID, payload []byte) {
	if nd.handler == nil || nd.proc.Crashed() {
		return
	}
	nd.handler(from, payload)
}

// Send transmits payload to node `to`. Local destinations short-circuit
// through the host inbox; remote destinations are framed and queued on the
// peer's link (tail-drop under overload). Never blocks. A crashed node
// sends nothing.
func (nd *Node) Send(to ids.ID, payload []byte) {
	if nd.proc.Crashed() {
		return
	}
	n := nd.net
	n.msgsSent.Add(1)
	n.bytesSent.Add(uint64(len(payload)))
	n.mu.Lock()
	_, isLocal := n.local[to]
	n.mu.Unlock()
	if isLocal {
		f := inFrame{net: n, from: int64(nd.id), to: int64(to), payload: payload}
		select {
		case n.host.inbox <- f:
		default:
			n.dropped.Add(1) // inbox saturated: tail semantics allow the drop
		}
		return
	}
	nd.mu.Lock()
	seq, ok := nd.seqs[to]
	if !ok {
		seq = n.seqEpoch // first frame on this link: start at the boot epoch
	}
	seq++
	nd.seqs[to] = seq
	nd.mu.Unlock()
	if l := n.link(to); l != nil {
		l.enqueue(seq, nd.id, to, payload)
	}
}
