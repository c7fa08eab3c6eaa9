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
//
// Register traffic is encoded once and allocates nothing in steady state, as
// an RDMA client reposts its registered buffers. An operation is one request
// frame (memnode.EncodeWrite, EncodeRead), channel tag first, posted uncopied
// to every memory node and on every retransmission; a WRITE's sub-register
// image is encoded straight into it. Request frames come from the process's
// one free list of frames (router.Frame). A frame belongs to its operation
// until every transmission of it, retransmissions included, has been
// answered; only then does the client release it (router.Release). An
// operation finished at f_m+1 answers leaves its frame in a draining set of
// constant size, which forgets its oldest entry when full (a frame sent to a
// crashed node is never answered), and a forgotten frame is left to the
// garbage collector. A READ's region is copied out of each completion into
// the operation's own buffer, as the NIC DMAs it into a posted one, and the
// completion's one reader releases it. The value a read returns is lent to
// its callback.
package swmr

import (
	"encoding/binary"
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

// drainSlots is the size of a Store's draining set.
const drainSlots = 16

// Store is a per-host client that multiplexes register operations to the
// memory-node quorum. One Store serves all registers used by its host.
type Store struct {
	rt    *router.Router
	proc  *sim.Proc
	nodes []ids.ID
	fm    int

	nextSeq    uint64
	ops        map[uint64]*quorumOp
	free       wire.FreeList[quorumOp] // completed records, reused by the next operations
	retransmit sim.Timer
	resendFn   func()   // s.resend, bound once
	seqs       []uint64 // resend's scratch

	draining [drainSlots]drainingFrame // finished operations' frames still being answered
}

// drainingFrame is the request frame of a finished operation, numbered seq,
// with unanswered transmissions.
type drainingFrame struct {
	seq        uint64
	frame      []byte
	unanswered int
}

// quorumOp is one operation in flight at the memory nodes: a WRITE waiting
// for f_m+1 acks or one attempt of a READ waiting for f_m+1 region snapshots.
type quorumOp struct {
	frame      []byte   // sent to every node and on every retransmission
	unanswered int      // transmissions of frame not answered yet
	responded  uint64   // bit i set: nodes[i] has answered (each node counts once)
	ok, fail   int      // answers by status
	snapshots  [][]byte // what the OK answers of a READ carried, copied into buffers the record keeps
	nextRetry  sim.Time
	backoff    sim.Duration

	// A WRITE completes the head of reg's queue. A READ (reg nil) is attempt
	// number attempt, begun at started, of reading region for done.
	reg      *Register
	region   memnode.RegionID
	valueCap int
	attempt  int
	started  sim.Time
	done     func(ReadResult, error)
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
	s.resendFn = s.resend
	rt.RegisterFrame(router.ChanMemResp, s.onResponse)
	return s
}

// onResponse reads one completion, frame with its channel tag, and releases
// it on every path. Only a memory node's own completions are released: a
// forged one (other senders) may be shared with other receivers.
func (s *Store) onResponse(from ids.ID, frame []byte) {
	node := slices.Index(s.nodes, from)
	if node < 0 {
		return // not a memory node; ignore
	}
	defer router.Release(frame)
	_, payload := router.Split(frame)
	resp, err := memnode.DecodeResponse(payload)
	if err != nil {
		return // memory nodes are trusted; defensive anyway
	}
	op := s.ops[resp.Seq]
	if op == nil {
		s.answered(resp.Seq) // late completion after quorum
		return
	}
	op.unanswered--
	if op.responded&(1<<node) != 0 {
		return // retransmission echo: each node counts once
	}
	op.responded |= 1 << node
	if resp.Status != memnode.StatusOK {
		op.fail++
	} else {
		op.ok++
		if !resp.IsWriteResp() {
			op.keep(resp.Data)
		}
	}
	var failed error
	need := s.fm + 1
	switch {
	case op.ok >= need:
	case op.fail > len(s.nodes)-need:
		failed = fmt.Errorf("swmr: operation rejected by %d/%d memory nodes (status %d)", op.fail, len(s.nodes), resp.Status)
	default:
		return // neither outcome has a quorum yet
	}
	delete(s.ops, resp.Seq)
	s.retire(resp.Seq, op)
	if op.reg != nil {
		op.reg.written(failed)
	} else {
		s.readDone(op, failed)
	}
	*op = quorumOp{snapshots: op.snapshots[:0]}
	s.free.Put(op)
}

// keep copies a READ's region into the record's next snapshot buffer. The
// copy is not charged: it is the NIC's DMA into a posted buffer.
func (op *quorumOp) keep(data []byte) {
	k := len(op.snapshots)
	if k < cap(op.snapshots) {
		op.snapshots = op.snapshots[:k+1]
	} else {
		op.snapshots = append(op.snapshots, nil)
	}
	op.snapshots[k] = append(op.snapshots[k][:0], data...)
}

// retire releases the frame of op, finished as seq, to the process's free
// list once every transmission of it is answered: now, or from the draining
// set, where it takes a free entry (seq 0) or forgets the oldest one, whose
// frame is then left to the garbage collector.
func (s *Store) retire(seq uint64, op *quorumOp) {
	if op.unanswered == 0 {
		router.Release(op.frame)
		return
	}
	oldest := &s.draining[0]
	for i := range s.draining {
		if s.draining[i].seq < oldest.seq {
			oldest = &s.draining[i]
		}
	}
	*oldest = drainingFrame{seq: seq, frame: op.frame, unanswered: op.unanswered}
}

// answered counts a completion of the finished operation seq, if its frame
// is draining.
func (s *Store) answered(seq uint64) {
	for i := range s.draining {
		if d := &s.draining[i]; d.frame != nil && d.seq == seq {
			if d.unanswered--; d.unanswered == 0 {
				router.Release(d.frame)
				*d = drainingFrame{}
			}
			return
		}
	}
}

// newOp returns a blank quorum-op record.
func (s *Store) newOp() *quorumOp {
	if op := s.free.Get(); op != nil {
		return op
	}
	return &quorumOp{}
}

// issue numbers frame with the next sequence number and sends it to every
// memory node for op, which completes at f_m+1 OK answers or once a quorum
// can no longer form. The frame is retained for retransmission until then:
// memory-node writes are idempotent and reads pure.
func (s *Store) issue(op *quorumOp, frame []byte) {
	s.nextSeq++
	memnode.SetSeq(frame, s.nextSeq)
	op.frame, op.unanswered = frame, len(s.nodes)
	op.nextRetry = s.proc.Now().Add(retransmitInterval)
	op.backoff = retransmitInterval
	s.ops[s.nextSeq] = op
	for _, nid := range s.nodes {
		s.rt.SendFrame(nid, frame)
	}
	s.armRetransmit()
}

// armRetransmit schedules the retransmission loop if any quorum operation
// is pending. The loop re-pushes each pending op's frame to exactly the
// nodes that have not responded, then disarms itself once the map drains —
// a quiescent post-GST system never keeps the timer alive.
func (s *Store) armRetransmit() {
	if s.retransmit.Pending() || len(s.ops) == 0 {
		return
	}
	s.retransmit = s.proc.After(retransmitInterval, s.resendFn)
}

func (s *Store) resend() {
	now := s.proc.Now()
	// Sorted seq order: the send sequence must not depend on map iteration
	// order (every send perturbs the simulated network's deterministic event
	// stream).
	s.seqs = slices.AppendSeq(s.seqs[:0], maps.Keys(s.ops))
	slices.Sort(s.seqs)
	for _, seq := range s.seqs {
		op := s.ops[seq]
		if now < op.nextRetry {
			continue
		}
		op.backoff = min(2*op.backoff, maxRetransmitBackoff)
		op.nextRetry = now.Add(op.backoff)
		for i, nid := range s.nodes {
			if op.responded&(1<<i) == 0 {
				op.unanswered++
				s.rt.SendFrame(nid, op.frame)
			}
		}
	}
	s.armRetransmit()
}

// Register is a handle to one reliable SWMR regular register. The same
// handle type serves writers (on the owner host) and readers (elsewhere);
// the memory nodes enforce that only the owner's writes succeed. A handle is
// its own cooldown timer's sim.Handler.
type Register struct {
	store    *Store
	region   memnode.RegionID
	valueCap int

	// Writer side: the δ cooldown and the FIFO of writes behind it, each one
	// its encoded request frame. The head is in flight while writing is set.
	// The queue starts on first, which holds a writer that waits for each
	// write's completion before the next.
	lastWriteAt sim.Time
	wrotOnce    bool
	writes      uint64 // writes queued so far: the next goes to sub-register writes%2
	queue       []queuedWrite
	first       [1]queuedWrite
	writing     bool
}

type queuedWrite struct {
	frame []byte
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
	return &NewRegisters(store, region, valueCap, 1)[0]
}

// NewRegisters creates the handles of n registers in consecutive regions
// from first on, in one allocation.
func NewRegisters(store *Store, first memnode.RegionID, valueCap, n int) []Register {
	regs := make([]Register, n)
	for i := range regs {
		r := &regs[i]
		r.store, r.region, r.valueCap = store, first+memnode.RegionID(i), valueCap
		r.queue = r.first[:0]
	}
	return regs
}

// encodeSlot writes the sub-register image checksum | ts | len | value into
// slot, a window whose padding is already zero.
func encodeSlot(slot []byte, ts uint64, value []byte) {
	binary.LittleEndian.PutUint64(slot[8:], ts)
	binary.LittleEndian.PutUint32(slot[16:], uint32(len(value)))
	copy(slot[slotHeaderLen:], value)
	binary.LittleEndian.PutUint64(slot, xcrypto.ChecksumNoCharge(slot[8:]))
}

// decodeSlot parses a sub-register image. ok is false for invalid
// checksums; empty reports an all-zero (never written) slot, which is valid
// initial state. value is a view of slot, capped so an append reallocates.
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
	end := slotHeaderLen + int(length)
	return ts, slot[slotHeaderLen:end:end], true, false
}

// Write stores (ts, value) in the register, observing the δ cooldown
// between consecutive writes (paper §6.1: the writer waits δ between two
// WRITEs to the same register). Writes queue FIFO behind the cooldown, each
// one already encoded, so the caller may reuse value as soon as Write
// returns. done runs when a majority of memory nodes acked.
func (r *Register) Write(ts uint64, value []byte, done func(error)) {
	if len(value) > r.valueCap {
		panic(fmt.Sprintf("swmr: value %dB exceeds register capacity %dB", len(value), r.valueCap))
	}
	encodeSlot(r.queueWrite(done), ts, value)
	r.pump()
}

// queueWrite queues the register's next WRITE, of the sub-register its
// position in the write sequence names (round-robin, §6.1), and returns the
// window of its request frame that the sub-register image goes in.
func (r *Register) queueWrite(done func(error)) []byte {
	size, off := SlotSize(r.valueCap), 0
	if r.writes%2 == 1 {
		off = size
	}
	r.writes++
	frame, slot := memnode.EncodeWrite(router.Frame(memnode.WriteLen(off, size)), r.region, off, size)
	r.queue = append(r.queue, queuedWrite{frame: frame, done: done})
	return slot
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
			r.store.proc.AfterH(next.Sub(now), r)
			return
		}
	}
	r.writing = true
	r.wrotOnce = true
	r.lastWriteAt = now
	// The sub-register image's checksum and its copy into the frame are
	// charged as the WRITE leaves.
	size := SlotSize(r.valueCap)
	r.store.proc.Charge(latmodel.ChecksumCost(size - 8))
	r.store.proc.Charge(latmodel.CopyCost(size))
	op := r.store.newOp()
	op.reg = r
	r.store.issue(op, r.queue[0].frame)
}

// Fire ends the cooldown: the head of the queue may go.
func (r *Register) Fire() {
	r.writing = false
	r.pump()
}

// written completes the WRITE at the head of the queue.
func (r *Register) written(err error) {
	done := r.queue[0].done
	r.queue = slices.Delete(r.queue, 0, 1)
	r.writing = false
	done(err)
	r.pump()
}

// ReadResult is the outcome of a register read.
type ReadResult struct {
	TS uint64
	// Value is lent to the read's done callback: it is valid only until the
	// callback returns, and never written through (an append to it
	// reallocates). A caller that keeps it copies it.
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
	op := s.newOp()
	op.region, op.valueCap, op.attempt, op.started, op.done = region, valueCap, attempt, s.proc.Now(), done
	s.issue(op, memnode.EncodeRead(router.Frame(memnode.ReadLen), region))
}

// readDone completes one read attempt with the snapshots its quorum
// returned, or with the error that ended it.
func (s *Store) readDone(op *quorumOp, err error) {
	if err != nil {
		op.done(ReadResult{}, err)
		return
	}
	elapsed := s.proc.Now().Sub(op.started)
	best := ReadResult{Empty: true}
	haveValid := false
	byz := false
	for _, snap := range op.snapshots {
		if len(snap) != RegionSize(op.valueCap) {
			continue // trusted memnodes never truncate; defensive anyway
		}
		half := SlotSize(op.valueCap)
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
				best = ReadResult{TS: c.ts, Value: c.val}
			}
		}
		if emptyA && emptyB {
			haveValid = true // settled initial state counts as a valid (empty) read
		}
	}
	if haveValid {
		op.done(best, nil)
		return
	}
	if byz || elapsed < latmodel.Delta {
		// No settled sub-register although reads are fast (post-GST a
		// read within δ cannot overlap writes to both sub-registers):
		// the writer is Byzantine. Return the default value.
		op.done(ReadResult{Empty: true}, ErrByzantineWriter)
		return
	}
	// The read took longer than δ (pre-GST asynchrony): retry.
	s.readAttempt(op.region, op.valueCap, op.attempt+1, op.done)
}
