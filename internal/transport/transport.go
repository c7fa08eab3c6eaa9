// Package transport defines the authenticated point-to-point link contract
// every fabric backend of the reproduction satisfies. The paper assumes
// links that are authenticated and tamper-proof (§2.4); this package pins
// that assumption down as a Go interface so the layers above it (router,
// msgring, consensus, shard) are fabric-agnostic:
//
//   - internal/simnet implements it on the deterministic discrete-event
//     engine in virtual time — the reproducibility/CI harness.
//   - internal/nettrans implements it over real TCP sockets in wall-clock
//     time — the "system that serves traffic" backend.
//
// The contract is deliberately minimal: Send(to, payload) is asynchronous,
// unacknowledged and may drop under overload or partition (tail semantics:
// the newest traffic wins, exactly like the message-ring overwrite model);
// delivery invokes the endpoint's handler with the authenticated sender
// identity, in FIFO order per directed link, without duplicates (a frame the
// endpoint's intake claims may overtake unclaimed frames waiting for the
// process, never another claimed one: SetIntake). A node
// stops one way, crash-stop: once its process crashes, no frame leaves or
// reaches it, on either backend. Every retransmission/recovery mechanism
// above (tbcast, CTBcast, 2PC fan-outs) is built on precisely these
// semantics, which is why one interface can carry both a lossy simulated
// fabric and a reconnecting socket backend.
package transport

import (
	"repro/internal/ids"
	"repro/internal/sim"
)

// MaxFrame is the largest payload, in bytes, that every backend delivers
// whole; a longer one may be dropped (nettrans drops the connection it
// arrives on). The largest message of the stack is a CTBcast channel
// summary, and deployments keep its cap (consensus.Config.SummaryCap) at or
// below this bound.
const MaxFrame = 4 << 20

// Handler consumes a message delivered to an endpoint. from is the
// authenticated sender identity: a backend must guarantee it cannot be
// spoofed by another node of the deployment (simnet by construction,
// nettrans by its closed static peer table — see that package's trust
// model notes).
type Handler func(from ids.ID, payload []byte)

// Endpoint is one node's attachment to the fabric. Implementations must
// deliver messages on the engine goroutine of the endpoint's process, so
// protocol handlers never race with each other. Once that process has
// crashed (sim.Proc.Crash), the backend neither delivers to the endpoint nor
// sends from it.
//
// The payload slice passed to Send is delivered (or copied) as-is: the
// backend never recycles or rewrites it, a receiver only reads it, and the
// sender does not write it while a transmission of it is undelivered. One
// slice may be sent to several nodes and sent again later (a message-ring
// frame is shared by the sender's mirror, every receiver and retransmission;
// a register request by every memory node and retransmission; a client
// request by every replica it addresses). Two kinds go back to the
// process's free list of frames (router.Release) and are written again: a
// completion, a ring ack, an echo or a client reply is sent once, to one
// node, whose receiver releases it after its handler has read it (a client
// keeps, unreleased, the one reply whose result it hands to its caller), and
// a register request is released by its client once every transmission of it
// is answered (a memory node copies a WRITE's data before its handler
// returns). Nothing reads a released frame. Every other payload is immutable
// once sent.
type Endpoint interface {
	// ID returns the node's identity.
	ID() ids.ID
	// Proc returns the simulated/real process the endpoint's handler runs
	// on (its engine drives timers for the protocol layers above).
	Proc() *sim.Proc
	// SetHandler installs the message handler. Messages delivered before
	// SetHandler are dropped.
	SetHandler(h Handler)
	// SetIntake names the frames the endpoint takes the instant they arrive
	// (nil: none): a frame for which claim reports true goes to the handler
	// at arrival, neither queued behind the computation the process has in
	// progress nor charged the process's dispatch, because the handler hands
	// it to another core of the host, which is charged instead (a replica's
	// fast reads). A claimed frame may so overtake unclaimed frames on its
	// link that wait for the process; claimed frames keep their order. claim
	// must not keep or write the frame. A backend whose process has no busy
	// horizon (nettrans) delivers every frame so already.
	SetIntake(claim func(frame []byte) bool)
	// Send transmits payload to the node identified by to. It never
	// blocks: under overload or partition the backend drops (oldest
	// first) rather than stall the caller. A send made from an event on
	// another core of the host (sim.Proc.NewCore) is that core's post: the
	// core's work that ended in the send paid for it, and the frame leaves
	// then, not behind the process's queued work.
	Send(to ids.ID, payload []byte)
}

// Fabric creates endpoints bound to one engine. Deployment layers
// (cluster, shard) consume this to stay backend-agnostic: the default is
// the deterministic simnet fabric, and a real-socket deployment injects a
// nettrans-backed fabric instead.
type Fabric interface {
	// Engine returns the engine all of the fabric's endpoints run on.
	// A Fabric with a nil engine is unusable; deployment layers reject it
	// at Normalize/validate time with a clear error.
	Engine() *sim.Engine
	// NewEndpoint creates the endpoint for node id. name is a diagnostic
	// label for the node's process. Creating the same id twice errors.
	NewEndpoint(id ids.ID, name string) (Endpoint, error)
}
