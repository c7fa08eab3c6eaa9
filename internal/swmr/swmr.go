// Package swmr implements the paper's reliable Single-Writer
// Multiple-Reader regular registers (§6.1, Figure 5) on top of crash-only
// memory nodes.
//
// Each register is materialized as one region per memory node holding two
// sub-registers (double buffering). A WRITE goes to sub-register ts%2 and
// carries a checksum and a logical timestamp; the writer observes a δ
// cooldown between WRITEs to the same register so that a reader always
// finds at least one settled sub-register after GST. A READ fetches the
// whole region from every memory node, waits for a majority (f_m+1),
// validates checksums, and returns the highest-timestamped valid value;
// per the paper, a read that finds no valid sub-register within δ proves
// the register's owner Byzantine (it ignored the cooldown or wrote bogus
// checksums), and equal timestamps in both sub-registers likewise.
//
// Reliability comes from quorum replication across 2f_m+1 memory nodes:
// WRITEs complete at f_m+1 acks, READs at f_m+1 responses, so reads
// intersect the last completed write. Pending quorum operations are
// retransmitted to the nodes that have not yet responded: before GST the
// network may drop request or response frames, and a register operation
// whose callback never fires would freeze the writer's cooldown queue and
// wedge every protocol layered above it (CTBcast's slow path in
// particular). Both operations are idempotent at the memory node, and
// responses are deduplicated per node, so retransmission is safe.
package swmr

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/memnode"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// ErrByzantineWriter is returned by Read when the register's contents prove
// the owner violated the write protocol (bogus checksums within δ, or equal
// timestamps in both sub-registers).
var ErrByzantineWriter = errors.New("swmr: register owner is Byzantine")

// ErrTooManyRetries is returned when a read keeps overlapping writes far
// beyond the synchronous bound (only possible before GST or under a crash
// of more than f_m memory nodes).
var ErrTooManyRetries = errors.New("swmr: read retry budget exhausted")

// maxReadRetries bounds read retries; after GST a single retry suffices.
const maxReadRetries = 64

// retransmitInterval is the base period of the retransmission loop. Each
// pending operation backs off exponentially from this (doubling up to
// maxRetransmitBackoff): a slow quorum is usually a busy processor, not a
// lossy link, and blind periodic resends would pile dispatch cost onto the
// already-busy hosts — the same metastable feedback the CTBcast fallback
// delay guards against. Only matters before GST (or across a memory-node
// crash); after GST the first transmission always completes the quorum
// and the timer disarms.
const retransmitInterval = 250 * sim.Microsecond

// maxRetransmitBackoff caps a pending operation's retransmission period.
const maxRetransmitBackoff = 4 * sim.Millisecond

// slotHeaderLen is checksum(8) + timestamp(8) + length(4).
const slotHeaderLen = 20

// Store is a per-host client that multiplexes register operations to the
// memory-node quorum. One Store serves all registers used by its host.
type Store struct {
	rt    *router.Router
	proc  *sim.Proc
	nodes []ids.ID
	fm    int

	nextSeq    uint64
	ops        map[uint64]*quorumOp
	retransmit sim.Timer
}

// quorumOp is one operation in flight at the memory nodes: a WRITE waiting
// for f_m+1 acks or a READ waiting for f_m+1 region snapshots.
type quorumOp struct {
	frame     []byte   // retained for retransmission until the quorum completes
	responded uint64   // bit i set: nodes[i] has answered (each node counts once)
	ok, fail  int      // answers by status
	snapshots [][]byte // what the OK answers of a READ carried
	done      func(snapshots [][]byte, err error)
	nextRetry sim.Time
	backoff   sim.Duration
}

// NewStore creates the client. nodes must list the 2f_m+1 memory nodes.
func NewStore(rt *router.Router, proc *sim.Proc, nodes []ids.ID, fm int) *Store {
	// The paper deploys 2fm+1 memory nodes. Any pool size in
	// [fm+1, 2fm+1] preserves quorum intersection (write and read quorums
	// of fm+1 overlap whenever n <= 2fm+1); smaller pools trade crash
	// tolerance for footprint, which the wall-clock bench harness uses to
	// run lean local clusters (e.g. 2 memory nodes at fm=1).
	if len(nodes) < fm+1 || len(nodes) > 2*fm+1 {
		panic(fmt.Sprintf("swmr: need between fm+1=%d and 2*fm+1=%d memory nodes, got %d", fm+1, 2*fm+1, len(nodes)))
	}
	if len(nodes) > 64 {
		panic(fmt.Sprintf("swmr: %d memory nodes exceed the 64 a response mask covers", len(nodes)))
	}
	s := &Store{
		rt:    rt,
		proc:  proc,
		nodes: nodes,
		fm:    fm,
		ops:   make(map[uint64]*quorumOp),
	}
	rt.Register(router.ChanMemResp, s.onResponse)
	return s
}

func (s *Store) onResponse(from ids.ID, payload []byte) {
	resp, err := memnode.DecodeResponse(payload)
	if err != nil {
		return // memory nodes are trusted; a bad frame means a forged sender, drop
	}
	op := s.ops[resp.Seq]
	node := slices.Index(s.nodes, from)
	if op == nil || node < 0 {
		return // late completion after quorum, or not a memory node; ignore
	}
	if op.responded&(1<<node) != 0 {
		return // retransmission echo: each node counts once
	}
	op.responded |= 1 << node
	if resp.Status != memnode.StatusOK {
		op.fail++
	} else {
		op.ok++
		if !resp.IsWriteResp() {
			op.snapshots = append(op.snapshots, resp.Data)
		}
	}
	need := s.fm + 1
	if op.ok >= need {
		delete(s.ops, resp.Seq)
		op.done(op.snapshots, nil)
	} else if op.fail > len(s.nodes)-need {
		delete(s.ops, resp.Seq)
		op.done(nil, fmt.Errorf("swmr: operation rejected by %d/%d memory nodes (status %d)", op.fail, len(s.nodes), resp.Status))
	}
}

// issue sends frame, which carries sequence number nextSeq, to every memory
// node; done runs at f_m+1 OK answers (with the snapshots, for a READ) or
// once a quorum can no longer form. The frame is retained for retransmission
// until then: memory-node writes are idempotent and reads pure.
func (s *Store) issue(frame []byte, done func([][]byte, error)) {
	s.ops[s.nextSeq] = &quorumOp{frame: frame, done: done,
		nextRetry: s.proc.Now().Add(retransmitInterval), backoff: retransmitInterval}
	for _, nid := range s.nodes {
		s.rt.Send(nid, router.ChanMemReq, frame)
	}
	s.armRetransmit()
}

// writeAll issues the same region write to every memory node.
func (s *Store) writeAll(region memnode.RegionID, off int, data []byte, done func([][]byte, error)) {
	s.nextSeq++
	s.issue(memnode.EncodeWrite(s.nextSeq, region, off, data), done)
}

// readAll issues a region read to every memory node.
func (s *Store) readAll(region memnode.RegionID, done func([][]byte, error)) {
	s.nextSeq++
	s.issue(memnode.EncodeRead(s.nextSeq, region), done)
}

// armRetransmit schedules the retransmission loop if any quorum operation
// is pending. The loop re-pushes each pending op's frame to exactly the
// nodes that have not responded, then disarms itself once the map drains —
// a quiescent post-GST system never keeps the timer alive.
func (s *Store) armRetransmit() {
	if s.retransmit.Pending() || len(s.ops) == 0 {
		return
	}
	s.retransmit = s.proc.After(retransmitInterval, func() {
		now := s.proc.Now()
		// Sorted seq order: the send sequence must not depend on map
		// iteration order (every send perturbs the simulated network's
		// deterministic event stream).
		seqs := slices.AppendSeq(make([]uint64, 0, len(s.ops)), maps.Keys(s.ops))
		slices.Sort(seqs)
		for _, seq := range seqs {
			op := s.ops[seq]
			if now < op.nextRetry {
				continue
			}
			op.backoff = min(2*op.backoff, maxRetransmitBackoff)
			op.nextRetry = now.Add(op.backoff)
			for i, nid := range s.nodes {
				if op.responded&(1<<i) == 0 {
					s.rt.Send(nid, router.ChanMemReq, op.frame)
				}
			}
		}
		s.armRetransmit()
	})
}

// Register is a handle to one reliable SWMR regular register. The same
// handle type serves writers (on the owner host) and readers (elsewhere);
// the memory nodes enforce that only the owner's writes succeed.
type Register struct {
	store    *Store
	region   memnode.RegionID
	valueCap int

	// Writer-side cooldown state.
	lastWriteAt sim.Time
	wrotOnce    bool
	writeCount  uint64
	queue       []queuedWrite
	writing     bool
}

type queuedWrite struct {
	ts    uint64
	value []byte
	done  func(error)
}

// SlotSize returns the byte size of one sub-register for a given value
// capacity.
func SlotSize(valueCap int) int { return slotHeaderLen + valueCap }

// RegionSize returns the byte size of one register's region (two
// sub-registers).
func RegionSize(valueCap int) int { return 2 * SlotSize(valueCap) }

// NewRegister creates a handle. The region must have been allocated on
// every memory node with size RegionSize(valueCap) and the writer as owner.
func NewRegister(store *Store, region memnode.RegionID, valueCap int) *Register {
	return &Register{store: store, region: region, valueCap: valueCap}
}

// encodeSlot builds a sub-register image: checksum | ts | len | value+pad.
func (r *Register) encodeSlot(ts uint64, value []byte) []byte {
	if len(value) > r.valueCap {
		panic(fmt.Sprintf("swmr: value %dB exceeds register capacity %dB", len(value), r.valueCap))
	}
	slot := make([]byte, SlotSize(r.valueCap))
	w := wire.NewWriter(slotHeaderLen)
	w.U64(0) // checksum placeholder
	w.U64(ts)
	w.U32(uint32(len(value)))
	header := w.Finish()
	copy(slot, header)
	copy(slot[slotHeaderLen:], value)
	chk := xcrypto.Checksum(r.store.proc, slot[8:])
	w2 := wire.NewWriter(8)
	w2.U64(chk)
	copy(slot[:8], w2.Finish())
	return slot
}

// decodeSlot parses a sub-register image. ok is false for invalid
// checksums; empty reports an all-zero (never written) slot, which is valid
// initial state.
func decodeSlot(slot []byte) (ts uint64, value []byte, ok, empty bool) {
	allZero := true
	for _, b := range slot {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return 0, nil, true, true
	}
	if len(slot) < slotHeaderLen {
		return 0, nil, false, false
	}
	r := wire.NewReader(slot[:slotHeaderLen])
	chk := r.U64()
	ts = r.U64()
	length := r.U32()
	if int(length) > len(slot)-slotHeaderLen {
		return 0, nil, false, false
	}
	if xcrypto.ChecksumNoCharge(slot[8:]) != chk {
		return 0, nil, false, false
	}
	return ts, slot[slotHeaderLen : slotHeaderLen+int(length)], true, false
}

// Write stores (ts, value) in the register, observing the δ cooldown
// between consecutive writes (paper §6.1: the writer waits δ between two
// WRITEs to the same register). Writes queue FIFO behind the cooldown.
// done runs when a majority of memory nodes acked.
func (r *Register) Write(ts uint64, value []byte, done func(error)) {
	v := make([]byte, len(value))
	copy(v, value)
	r.queue = append(r.queue, queuedWrite{ts: ts, value: v, done: done})
	r.pump()
}

func (r *Register) pump() {
	if r.writing || len(r.queue) == 0 {
		return
	}
	now := r.store.proc.Now()
	if r.wrotOnce {
		next := r.lastWriteAt.Add(latmodel.Delta)
		if now < next {
			r.writing = true
			r.store.proc.After(next.Sub(now), func() {
				r.writing = false
				r.pump()
			})
			return
		}
	}
	qw := r.queue[0]
	r.queue = r.queue[1:]
	r.writing = true
	r.wrotOnce = true
	r.lastWriteAt = now
	slot := r.encodeSlot(qw.ts, qw.value)
	// Round-robin between the two sub-registers by write count (§6.1).
	off := 0
	if r.writeCount%2 == 1 {
		off = SlotSize(r.valueCap)
	}
	r.writeCount++
	r.store.proc.Charge(latmodel.CopyCost(len(slot)))
	r.store.writeAll(r.region, off, slot, func(_ [][]byte, err error) {
		r.writing = false
		qw.done(err)
		r.pump()
	})
}

// ReadResult is the outcome of a register read.
type ReadResult struct {
	TS    uint64
	Value []byte
	// Empty reports that the register has never been written.
	Empty bool
}

// Read performs the regular-register read protocol: fetch both
// sub-registers from a majority of memory nodes, validate checksums, return
// the highest-timestamped valid value. It retries reads that overlap
// writes (no settled sub-register yet, elapsed ≥ δ) and reports
// ErrByzantineWriter when the contents prove the owner misbehaved.
func (r *Register) Read(done func(ReadResult, error)) {
	r.store.Read(r.region, r.valueCap, done)
}

// Read is Register.Read for a register named by its region: reading keeps
// no state between calls, so a host that only reads a register needs no
// handle for it.
func (s *Store) Read(region memnode.RegionID, valueCap int, done func(ReadResult, error)) {
	s.readAttempt(region, valueCap, 0, done)
}

func (s *Store) readAttempt(region memnode.RegionID, valueCap, attempt int, done func(ReadResult, error)) {
	if attempt > maxReadRetries {
		done(ReadResult{}, ErrTooManyRetries)
		return
	}
	attemptStart := s.proc.Now()
	s.readAll(region, func(snapshots [][]byte, err error) {
		if err != nil {
			done(ReadResult{}, err)
			return
		}
		elapsed := s.proc.Now().Sub(attemptStart)
		best := ReadResult{Empty: true}
		haveValid := false
		byz := false
		for _, snap := range snapshots {
			if len(snap) != RegionSize(valueCap) {
				continue // trusted memnodes never truncate; defensive anyway
			}
			half := SlotSize(valueCap)
			tsA, valA, okA, emptyA := decodeSlot(snap[:half])
			tsB, valB, okB, emptyB := decodeSlot(snap[half:])
			s.proc.Charge(latmodel.ChecksumCost(len(snap)))
			if okA && okB && !emptyA && !emptyB && tsA == tsB {
				// Two settled sub-registers with equal timestamps: the
				// writer violated the round-robin discipline.
				byz = true
				continue
			}
			for _, c := range []struct {
				ts    uint64
				val   []byte
				ok    bool
				empty bool
			}{{tsA, valA, okA, emptyA}, {tsB, valB, okB, emptyB}} {
				if !c.ok || c.empty {
					continue
				}
				haveValid = true
				if best.Empty || c.ts > best.TS {
					v := make([]byte, len(c.val))
					copy(v, c.val)
					best = ReadResult{TS: c.ts, Value: v}
				}
			}
			if emptyA && emptyB {
				haveValid = true // settled initial state counts as a valid (empty) read
			}
		}
		if haveValid {
			done(best, nil)
			return
		}
		if byz || elapsed < latmodel.Delta {
			// No settled sub-register although reads are fast (post-GST a
			// read within δ cannot overlap writes to both sub-registers):
			// the writer is Byzantine. Return the default value.
			done(ReadResult{Empty: true}, ErrByzantineWriter)
			return
		}
		// The read took longer than δ (pre-GST asynchrony): retry.
		s.readAttempt(region, valueCap, attempt+1, done)
	})
}
