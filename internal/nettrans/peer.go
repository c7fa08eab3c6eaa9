package nettrans

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// peerLink is the writing side of the directed link to one remote node: a
// bounded ring of encoded frames drained by a single writer goroutine that
// dials (and redials, with exponential backoff) the peer's process.
//
// Tail-drop semantics, matching the message ring's slot-overwrite model:
// when the ring is full the OLDEST frame is overwritten, so the queue
// always holds the newest QueueSlots frames and a dead peer costs bounded
// memory. Frame buffers are owned by the ring slots and reused across
// enqueues, so the steady state allocates nothing per frame.
//
// Health tracking: consecutive delivery failures — failed dial attempts
// and stalled writes alike — are counted, and at EvictAfterFails the peer
// is EVICTED: the ring is trimmed to its newest frame, and while that one
// waits new frames are fast-dropped at enqueue (no encoding, no queue
// churn). The redial backoff has grown to ProbeInterval by then, so a dead
// peer costs one connect probe per interval. A probe whose hello is
// accepted re-admits the peer with at most that one stale frame (plus the
// one the writer holds); the layers above retransmit, so traffic resumes
// without any transport-level replay. Eviction is a rate bound, not a
// death sentence: a crashed process that restarts on the same address is
// picked up by the next probe.
type peerLink struct {
	net *Net
	to  ids.ID

	mu     sync.Mutex
	cond   *sync.Cond
	ring   [][]byte // encoded bodies (seq|from|to|payload); slot storage reused
	head   int      // oldest queued frame
	count  int
	free   [][]byte // retired buffers ready for reuse
	closed bool
	conn   net.Conn // current connection (guarded by mu; writer replaces it)

	evicted     bool // past the failure threshold; fast-drop + slow probes
	consecFails int  // consecutive failed dials / stalled writes
}

func newPeerLink(n *Net, to ids.ID) *peerLink {
	l := &peerLink{net: n, to: to, ring: make([][]byte, QueueSlots)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// enqueue frames (seq, from, to, payload) into the ring, overwriting the
// oldest frame on overflow: the frame is encoded straight into its slot's
// buffer. Runs on the caller's goroutine (host loop); never blocks. Frames
// for an evicted peer are dropped before encoding.
func (l *peerLink) enqueue(seq uint64, from, to ids.ID, payload []byte) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	// While evicted, admit a frame only when the ring is empty: the writer
	// probes from inside dial() and needs one frame in flight to stay
	// there, but everything beyond that carrier is dropped unencoded.
	if l.evicted && l.count > 0 {
		l.mu.Unlock()
		l.net.evictDrops.Add(1)
		l.net.dropped.Add(1)
		return
	}
	var slot int
	if l.count == len(l.ring) {
		// Overflow: overwrite the oldest frame (its buffer is reused for
		// the new encoding below).
		slot = l.head
		l.head = (l.head + 1) % len(l.ring)
		l.net.dropped.Add(1)
		l.net.queueFull.Add(1) // backpressure: the writer is not keeping up
	} else {
		slot = (l.head + l.count) % len(l.ring)
		l.count++
	}
	w := wire.WriterOn(l.ring[slot][:0])
	w.Grow(frameHeaderLen + len(payload))
	w.U64(seq)
	w.I64(int64(from))
	w.I64(int64(to))
	w.Raw(payload)
	l.ring[slot] = w.Finish()
	l.mu.Unlock()
	l.cond.Signal()
}

// pop removes the oldest frame, transferring buffer ownership to the
// caller; blocks until a frame arrives or the link closes (nil return).
func (l *peerLink) pop() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.count == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil
	}
	buf := l.ring[l.head]
	// Hand the slot a retired buffer so the next enqueue reuses storage
	// instead of growing from nil.
	if n := len(l.free); n > 0 {
		l.ring[l.head] = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.ring[l.head] = nil
	}
	l.head = (l.head + 1) % len(l.ring)
	l.count--
	return buf
}

// retire returns a written-out buffer to the reuse pool.
func (l *peerLink) retire(buf []byte) {
	l.mu.Lock()
	if len(l.free) < len(l.ring) {
		l.free = append(l.free, buf)
	}
	l.mu.Unlock()
}

// close wakes and terminates the writer goroutine.
func (l *peerLink) close() {
	l.mu.Lock()
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// breakConn force-closes the current connection (fault injection); the
// writer redials with backoff.
func (l *peerLink) breakConn() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.mu.Unlock()
}

// sleep waits d or until the attachment shuts down (false on shutdown).
func (l *peerLink) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-l.net.stop:
		return false
	}
}

// dial resolves and connects to the peer, retrying with exponential
// backoff (capped at ProbeInterval) until it succeeds or the attachment
// closes (nil return). A fresh connection opens with the hello frame.
// Every failed attempt feeds the eviction counter, and the first attempt
// that lands re-admits an evicted peer.
func (l *peerLink) dial() net.Conn {
	backoff := dialBackoffMin
	for attempt := 0; ; attempt++ {
		if l.isClosed() {
			return nil
		}
		if attempt > 0 {
			l.net.redials.Add(1)
			if !l.sleep(backoff) {
				return nil
			}
			if backoff *= 2; backoff > ProbeInterval {
				backoff = ProbeInterval
			}
		}
		addr, ok := l.net.opts.Resolve(l.to)
		if !ok {
			l.noteFailure()
			continue // not resolvable (partitioned/not yet deployed): retry
		}
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			l.noteFailure()
			continue
		}
		if c.LocalAddr().String() == c.RemoteAddr().String() {
			// TCP simultaneous-open self-connect: dialing a loopback
			// ephemeral port nobody listens on yet can connect to itself
			// (src port == dst port), which would both fake a link and
			// hold the port against the peer's bind. Release and retry.
			c.Close()
			l.noteFailure()
			continue
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true) // microsecond-scale consensus: never batch
		}
		var hello [5]byte
		binary.LittleEndian.PutUint32(hello[:4], helloMagic)
		hello[4] = helloVersion
		c.SetWriteDeadline(time.Now().Add(writeStallTimeout))
		if _, err := c.Write(hello[:]); err != nil {
			c.Close()
			l.noteFailure()
			continue
		}
		l.noteSuccess() // the peer accepted our hello: alive (re-admit)
		return c
	}
}

func (l *peerLink) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// state snapshots the link's health for Net.Peers.
func (l *peerLink) state() PeerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return PeerState{Evicted: l.evicted, ConsecFails: l.consecFails, Queued: l.count}
}

// noteFailure records one failed delivery attempt (dial or write) and
// evicts the peer at the threshold, dropping every queued frame but the
// newest: a reborn peer must not be flushed a backlog of stale traffic.
func (l *peerLink) noteFailure() {
	l.mu.Lock()
	l.consecFails++
	if !l.evicted && l.consecFails >= EvictAfterFails {
		l.evicted = true
		l.net.evictions.Add(1)
		if stale := l.count - 1; stale > 0 {
			l.head = (l.head + stale) % len(l.ring)
			l.count = 1
			l.net.evictDrops.Add(uint64(stale))
			l.net.dropped.Add(uint64(stale))
		}
	}
	l.mu.Unlock()
}

// noteSuccess records a successful dial (hello accepted) or frame write,
// re-admitting an evicted peer.
func (l *peerLink) noteSuccess() {
	l.mu.Lock()
	l.consecFails = 0
	if l.evicted {
		l.evicted = false
		l.net.readmits.Add(1)
	}
	l.mu.Unlock()
}

// setConn publishes the writer's current connection so close/breakConn can
// interrupt a blocked write.
func (l *peerLink) setConn(c net.Conn) {
	l.mu.Lock()
	if l.closed && c != nil {
		c.Close()
	}
	l.conn = c
	l.mu.Unlock()
}

// run is the writer goroutine: pop the oldest frame, ensure a connection,
// write with a stall deadline, tear down and redial on failure. A frame
// that was popped when the write failed is lost — the same unacknowledged
// tail semantics the simulated fabric and the message ring already give
// the layers above, which all retransmit above the transport.
func (l *peerLink) run() {
	defer l.net.wg.Done()
	var conn net.Conn
	var lenbuf [4]byte
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		body := l.pop()
		if body == nil {
			return
		}
		if conn == nil {
			if conn = l.dial(); conn == nil {
				return
			}
			l.setConn(conn)
		}
		binary.LittleEndian.PutUint32(lenbuf[:], uint32(len(body)))
		conn.SetWriteDeadline(time.Now().Add(writeStallTimeout))
		_, err := conn.Write(lenbuf[:])
		if err == nil {
			_, err = conn.Write(body)
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				l.net.stalls.Add(1) // peer stopped draining: stall detector fired
			}
			l.noteFailure()
			conn.Close()
			conn = nil
			l.setConn(nil)
			// The frame is lost (tail semantics); newer traffic flows as
			// soon as the redial lands.
		} else {
			l.noteSuccess()
		}
		l.retire(body)
	}
}
