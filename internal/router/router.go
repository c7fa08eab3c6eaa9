// Package router multiplexes the many protocol components of one simulated
// host (RPC, message rings, memory-node traffic, consensus control
// messages) over that host's single authenticated network endpoint. Every
// message carries a one-byte channel tag; components register a handler per
// channel. This mirrors how the paper's prototype multiplexes queue pairs
// and completion queues on one RDMA NIC. As that prototype reposts its
// registered buffers, the process keeps one free list of frames (Frame,
// Release), and a frame comes back to it in one of two ways: a completion, a
// ring ack, an echo or a client reply is released by its one receiver once
// its handler has read it (a client keeps the one reply whose result it hands
// to its caller), and a register request by its sender once every
// transmission of it has been answered.
package router

import (
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Channel tags, aliased from the wire registry so the wire format stays
// self-describing in one place.
const (
	ChanMemReq   = wire.ChanMemReq   // host -> memory node: register READ/WRITE
	ChanMemResp  = wire.ChanMemResp  // memory node -> host: completions
	ChanRing     = wire.ChanRing     // message-ring RDMA writes (sender -> receiver)
	ChanRingAck  = wire.ChanRingAck  // tail-broadcast acknowledgements
	ChanRPC      = wire.ChanRPC      // client <-> replica requests/responses
	ChanDirect   = wire.ChanDirect   // consensus direct messages (view-change shares, echoes, state transfer, rejoin)
	ChanBaseline = wire.ChanBaseline // baseline protocols (Mu, MinBFT)
	ChanSummary  = wire.ChanSummary  // CTBcast summary certificate shares
)

// Handler consumes a demultiplexed message.
type Handler func(from ids.ID, payload []byte)

// Router wraps one transport endpoint (a simnet node or a nettrans socket
// endpoint) and dispatches by channel tag.
type Router struct {
	node     transport.Endpoint
	handlers [256]Handler
	whole    [256]bool // the channel's handler is given the whole frame
}

// New installs a router as the endpoint's message handler.
func New(node transport.Endpoint) *Router {
	r := &Router{node: node}
	node.SetHandler(r.dispatch)
	return r
}

// Node returns the underlying network endpoint.
func (r *Router) Node() transport.Endpoint { return r.node }

// ID returns the host's identity.
func (r *Router) ID() ids.ID { return r.node.ID() }

// Register installs h for channel ch. Registering channel 0 (see Split) or a
// channel twice panics: it is always a wiring bug.
func (r *Router) Register(ch uint8, h Handler) {
	if ch == 0 || r.handlers[ch] != nil {
		panic(fmt.Sprintf("router: channel %d reserved or registered twice on %v", ch, r.node.ID()))
	}
	r.handlers[ch] = h
}

// RegisterFrame is Register for a handler that is given the whole frame, its
// channel tag included: the one reader of a completion, a ring ack, an echo or
// a client reply, which hands it back with Release once its handler has read
// it, or keeps it (the reply a client hands to its caller).
func (r *Router) RegisterFrame(ch uint8, h Handler) {
	r.Register(ch, h)
	r.whole[ch] = true
}

// Send transmits payload to the host to on channel ch. It copies payload
// into a fresh frame behind the channel tag, so the caller may reuse its
// buffer (an encode buffer it keeps) as soon as Send returns, and a receiver may
// keep views of it: no frame Send makes is ever released.
func (r *Router) Send(to ids.ID, ch uint8, payload []byte) {
	buf := make([]byte, 1+len(payload))
	buf[0] = ch
	copy(buf[1:], payload)
	r.node.Send(to, buf)
}

// SendFrame transmits frame, whose first byte is already its channel tag, to
// the host to without copying it. The one slice may go to several hosts and
// out again later (the message ring's and the register client's fan-out and
// retransmission), and every receiver reads those very bytes, so it is not
// written while a transmission of it is undelivered. A frame taken from Frame
// is a completion, a ring ack, an echo or a client reply, sent once, to one
// host, whose one reader Releases it (or, for the one reply a client hands to
// its caller, keeps it), or a register request, which its client Releases
// once every transmission of it is answered (package swmr). Every other frame
// is never written again.
func (r *Router) SendFrame(to ids.ID, frame []byte) { r.node.Send(to, frame) }

// maxFree bounds the free list: a process that releases more frames than it
// takes (a client process over sockets, which releases every ack, completion
// and reply it reads and sends few) keeps no more than this many.
const maxFree = 256

// free is the free list of released frames, by length, and the blocks a miss
// is carved from. Every node of the process shares them, and they may run on
// different engine goroutines.
var free struct {
	sync.Mutex
	byLen map[int][][]byte
	count int
	slab  wire.Slab
}

// Frame returns a released frame of length n or, when none is left, one of
// cap n carved from the process's blocks (wire.Slab), so a miss costs an
// allocation per block, not one per frame. Its bytes are whatever
// its last use left: the caller writes every one of them before it sends the
// frame with SendFrame: once, to one host (a completion, a ring ack, an echo,
// a client reply), or to every memory node and on every retransmission (a
// register request). A carved frame is released like any other, and the next
// Frame of its length hands it out whole.
func Frame(n int) []byte {
	free.Lock()
	defer free.Unlock()
	fs := free.byLen[n]
	if len(fs) == 0 {
		return free.slab.Take(n)
	}
	free.byLen[n], free.count = fs[:len(fs)-1], free.count-1
	return fs[len(fs)-1]
}

// Release takes back a frame, channel tag included, that nothing reads any
// more: nothing may read it afterwards, as the next Frame of its length may
// be written into it. A completion, a ring ack, an echo or a client reply is
// released by the handler it was delivered to, once read (a consensus client
// releases every reply but the one whose result it hands to its caller, and
// only a replica's); a register request by the client that sent it, once
// every transmission of it has been answered. No other frame is released.
func Release(frame []byte) {
	free.Lock()
	defer free.Unlock()
	if free.count == maxFree {
		return // left to the garbage collector
	}
	if free.byLen == nil {
		free.byLen = make(map[int][][]byte)
	}
	free.byLen[len(frame)] = append(free.byLen[len(frame)], frame)
	free.count++
}

// Split returns a frame's channel tag and the payload its channel's handler
// is given. An empty frame reads as channel 0, which the wire registry
// leaves unassigned, so no handler receives it.
func Split(frame []byte) (ch uint8, payload []byte) {
	if len(frame) == 0 {
		return 0, nil
	}
	return frame[0], frame[1:]
}

func (r *Router) dispatch(from ids.ID, frame []byte) {
	ch, payload := Split(frame)
	h := r.handlers[ch]
	switch {
	case h == nil:
		return // channel not wired on this host (an empty frame included); drop
	case r.whole[ch]:
		payload = frame
	}
	h(from, payload)
}
