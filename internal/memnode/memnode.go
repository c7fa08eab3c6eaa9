// Package memnode implements the trusted disaggregated-memory servers of
// the paper (§2.4, §6.1). A memory node is a simple, application-oblivious
// process that exposes fixed-size memory regions over the network with
// hardware-style access control: each region has a designated writer
// (single-writer) and is readable by everyone (multiple-reader). Memory
// nodes are part of the trusted computing base: they may crash but are
// never Byzantine.
//
// Faithful RDMA quirks are modeled:
//
//   - 8-byte atomicity only (§3.2, §6.1): a READ that overlaps an
//     in-flight WRITE can return torn data, mixing new and old values at
//     8-byte granularity. The SWMR register layer must (and does) detect
//     this with checksums.
//   - One-sided operation: serving a READ/WRITE costs the memory node no
//     CPU time (the NIC does the work).
//   - Per-accessor permissions: a WRITE from any process other than the
//     region's owner is rejected, exactly like an RDMA protection fault.
//   - Reserve, then commit: AllocateRange reserves a run of equal-size
//     regions as one record at the end of its writer's span, as one memory
//     registration covers many registers, and makes no bytes; a region's
//     offset is its range's base plus its index times the size, and a
//     lookup is a binary search over the disjoint ranges. The writer's whole
//     span is committed at its first accepted WRITE, as the first store to
//     an mmap'd registration faults its pages in, and a range's per-register
//     settling windows at its own first accepted WRITE. Until then its
//     regions read as zeros. AllocatedBytes and BytesOwnedBy count
//     reservations (the paper's Table 2); CommittedBytes counts what is
//     backed.
//
// As an RDMA NIC posts one buffer to every memory node and DMAs a completion
// without copying it, a request or a completion is one frame, channel tag
// first, encoded once. A client posts the same request frame to every memory
// node and on every retransmission; the node copies a WRITE's data out of it
// before its handler returns and writes a READ's region, torn-read model
// applied, straight into the completion frame. Register frames are recycled
// as an RDMA client reposts its registered buffers, through the router's free
// list (router.Frame), which every node of the process shares: a client
// encodes a request into a frame from it (EncodeWrite, EncodeRead take the
// buffer) and releases it (router.Release) once every transmission of it is
// answered, and a completion is handed back by its one reader once done.
// Between Send and its last delivery a frame is never written.
package memnode

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Op codes of the memory-node wire protocol, aliased from the registry.
const (
	opWrite = wire.MemOpWrite
	opRead  = wire.MemOpRead
)

// Status codes of responses, aliased from the registry.
const (
	StatusOK         = wire.MemStatusOK
	StatusPermDenied = wire.MemStatusPermDenied
	StatusNoRegion   = wire.MemStatusNoRegion
	StatusBadRequest = wire.MemStatusBadRequest
)

// RegionID names a region within one memory node. Region IDs are allocated
// identically across the replicated memory nodes, so the same ID addresses
// the same logical register everywhere.
type RegionID uint32

// Frame layouts. A request is tag | op | seq | region, and a WRITE adds the
// offset and the length-prefixed data; a completion is tag | op | seq |
// status, and a READ adds the length-prefixed region contents.
const (
	seqAt         = 2             // where a request frame carries its sequence number
	reqHeaderLen  = 1 + 1 + 8 + 4 // tag, op, seq, region
	respHeaderLen = 1 + 1 + 8 + 1 // tag, op, seq, status
)

// pendingWrite is a WRITE inside its settling window, with the bytes it
// overwrote. Settled records go to the node's free list, so the next WRITE to
// any region reuses the pre-image buffer.
type pendingWrite struct {
	old   []byte
	start sim.Time
	end   sim.Time
	off   int
}

// regionRange is count equal-size regions first, first+1, ... of one writer,
// contiguous in its span from base: one record however many registers it
// holds.
type regionRange struct {
	first   RegionID
	count   int
	size    int
	base    int // offset of region first in its writer's span
	w       *writer
	pending []*pendingWrite // per region, made at the range's first accepted WRITE
}

// region is one region of a range: its record and its index k in the range.
type region struct {
	*regionRange
	k int
}

// data returns the region's bytes, or nil while its writer's span does not
// cover it yet.
func (rg region) data() []byte {
	start := rg.base + rg.k*rg.size
	if end := start + rg.size; end <= len(rg.w.span) {
		return rg.w.span[start:end:end]
	}
	return nil
}

// writer is one process's share of the node: the bytes reserved for its
// regions and, from its first accepted WRITE on, the span backing them.
type writer struct {
	id       ids.ID
	reserved int
	span     []byte
}

// commit backs every byte reserved for the writer. A region allocated after
// the first commit extends the span at the writer's next WRITE.
func (w *writer) commit() {
	if len(w.span) < w.reserved {
		span := make([]byte, w.reserved)
		copy(span, w.span)
		w.span = span
	}
}

// Node is one memory server.
type Node struct {
	id      ids.ID
	proc    *sim.Proc
	rt      *router.Router
	ranges  []*regionRange  // disjoint, sorted by first
	settled []*pendingWrite // free list of pendingWrite records

	// AllocatedBytes tracks total region bytes allocated on this node,
	// feeding the paper's Table 2 (disaggregated memory consumption).
	AllocatedBytes int
	// writers holds each writing process's reservation and span, so
	// multi-group deployments (the shard layer) can account each consensus
	// group's share of the shared pool.
	writers map[ids.ID]*writer
}

// New creates a memory node attached to rt's endpoint.
func New(rt *router.Router) *Node {
	n := &Node{
		id:      rt.ID(),
		proc:    rt.Node().Proc(),
		rt:      rt,
		writers: make(map[ids.ID]*writer),
	}
	rt.Register(router.ChanMemReq, n.onRequest)
	return n
}

// ID returns the memory node's identity.
func (n *Node) ID() ids.ID { return n.id }

// Crash stops the node permanently (crash-stop model).
func (n *Node) Crash() { n.proc.Crash() }

// Crashed reports whether the node has crashed.
func (n *Node) Crashed() bool { return n.proc.Crashed() }

// Allocate reserves one region of size bytes writable only by owner:
// AllocateRange(id, 1, owner, size).
func (n *Node) Allocate(id RegionID, owner ids.ID, size int) { n.AllocateRange(id, 1, owner, size) }

// AllocateRange reserves count regions first, ..., first+count-1 of size
// bytes each, writable only by owner, as one record at the end of owner's
// span; their bytes are committed with the span (package doc). The management
// plane (connection handling, §2.3) allocates regions before the protocol
// runs; allocating a region that exists panics.
func (n *Node) AllocateRange(first RegionID, count int, owner ids.ID, size int) {
	last := uint64(first) + uint64(count) - 1
	if size <= 0 || count <= 0 || last > math.MaxUint32 {
		panic(fmt.Sprintf("memnode %v: regions %d+%d size %d", n.id, first, count, size))
	}
	i := n.after(first)
	if i > 0 && n.ranges[i-1].contains(first) || i < len(n.ranges) && uint64(n.ranges[i].first) <= last {
		panic(fmt.Sprintf("memnode %v: regions %d..%d overlap an allocation", n.id, first, last))
	}
	w := n.writers[owner]
	if w == nil {
		w = &writer{id: owner}
		n.writers[owner] = w
	}
	n.ranges = slices.Insert(n.ranges, i, &regionRange{first: first, count: count, size: size, base: w.reserved, w: w})
	w.reserved += count * size
	n.AllocatedBytes += count * size
}

// contains reports whether id is one of the range's regions.
func (rr *regionRange) contains(id RegionID) bool {
	return id >= rr.first && uint64(id-rr.first) < uint64(rr.count)
}

// after returns the index of the first range that starts after id.
func (n *Node) after(id RegionID) int {
	return sort.Search(len(n.ranges), func(i int) bool { return n.ranges[i].first > id })
}

// region looks id up by binary search over the ranges.
func (n *Node) region(id RegionID) (region, bool) {
	i := n.after(id)
	if i == 0 || !n.ranges[i-1].contains(id) {
		return region{}, false
	}
	rr := n.ranges[i-1]
	return region{rr, int(id - rr.first)}, true
}

// RegionCount returns how many regions are allocated on this node. The
// shard layer asserts S groups occupy exactly S disjoint spans.
func (n *Node) RegionCount() int {
	c := 0
	for _, rr := range n.ranges {
		c += rr.count
	}
	return c
}

// BytesOwnedBy returns the bytes allocated to regions writable by owner,
// i.e. one process's share of this node's disaggregated pool.
func (n *Node) BytesOwnedBy(owner ids.ID) int {
	if w := n.writers[owner]; w != nil {
		return w.reserved
	}
	return 0
}

// CommittedBytes returns the bytes backing owner's regions: 0 until owner's
// first accepted WRITE, BytesOwnedBy(owner) from then on.
func (n *Node) CommittedBytes(owner ids.ID) int {
	if w := n.writers[owner]; w != nil {
		return len(w.span)
	}
	return 0
}

// readInto copies the region's contents as a READ arriving at now sees them
// into out, applying the torn-read model: during a write's settling window,
// words settle front-to-back, so a concurrent read sees a prefix of new data
// and a suffix of old data at 8-byte granularity. A region never written
// reads as zeros (out may be a recycled completion), and it has no settling
// window.
func (n *Node) readInto(out []byte, rg region, now sim.Time) {
	if copy(out, rg.data()) == 0 {
		clear(out)
	}
	if rg.pending == nil || rg.pending[rg.k] == nil {
		return
	}
	p := rg.pending[rg.k]
	if now >= p.end {
		n.settle(&rg.pending[rg.k])
		return
	}
	span := p.end - p.start
	frac := float64(now-p.start) / float64(span)
	writeLen := len(p.old)
	settledWords := int(frac * float64((writeLen+7)/8))
	settledBytes := settledWords * 8
	if settledBytes > writeLen {
		settledBytes = writeLen
	}
	// Bytes beyond the settled prefix still hold the old value.
	copy(out[p.off+settledBytes:p.off+writeLen], p.old[settledBytes:])
}

// settle ends the settling window in slot, if any, and keeps its record for
// the next WRITE.
func (n *Node) settle(slot **pendingWrite) {
	if *slot != nil {
		n.settled = append(n.settled, *slot)
		*slot = nil
	}
}

func (n *Node) onRequest(from ids.ID, payload []byte) {
	req, err := ParseRequest(payload)
	switch {
	case err != nil && req.Op == opRead:
		n.respond(from, opRead, req.Seq, StatusBadRequest)
	case err != nil:
		n.respond(from, opWrite, req.Seq, StatusBadRequest)
	case req.Op == opWrite:
		n.serveWrite(from, req.Seq, req.Region, req.Off, req.Data) // Data is copied into the region before this returns
	default:
		n.serveRead(from, req.Seq, req.Region)
	}
}

// Request is a decoded register request: a READ of Region, or a WRITE of Data
// at offset Off of it.
type Request struct {
	Op     uint8
	Seq    uint64
	Region RegionID
	Off    int
	Data   []byte
}

// ParseRequest decodes a request frame, channel tag stripped, in borrow mode:
// Data is a view of payload. A malformed request is returned with the op and
// sequence number read, which is what the node answers it with.
func ParseRequest(payload []byte) (Request, error) {
	r := wire.NewReader(payload)
	op, seq, region := r.U8(), r.U64(), RegionID(r.U32())
	var off uint64
	var data []byte
	switch op {
	case opWrite:
		off, data = r.Uvarint(), r.BytesView()
	case opRead:
	default:
		return Request{Op: op, Seq: seq}, fmt.Errorf("memnode: unknown op %d", op)
	}
	return Request{Op: op, Seq: seq, Region: region, Off: int(off), Data: data}, r.Done()
}

func (n *Node) serveWrite(from ids.ID, seq uint64, id RegionID, off int, data []byte) {
	rg, ok := n.region(id)
	if !ok {
		n.respond(from, opWrite, seq, StatusNoRegion)
		return
	}
	if rg.w.id != from {
		// RDMA protection fault: the requester lacks the write token.
		n.respond(from, opWrite, seq, StatusPermDenied)
		return
	}
	if off < 0 || off > rg.size-len(data) {
		n.respond(from, opWrite, seq, StatusBadRequest)
		return
	}
	rg.w.commit()
	if rg.pending == nil {
		rg.pending = make([]*pendingWrite, rg.count)
	}
	buf, slot := rg.data(), &rg.pending[rg.k]
	now := n.proc.Now()
	// Record the torn window before overwriting: the write settles over
	// roughly the PCIe copy duration of the payload.
	n.settle(slot)
	var p *pendingWrite
	if k := len(n.settled); k > 0 {
		p, n.settled = n.settled[k-1], n.settled[:k-1]
	} else {
		p = new(pendingWrite)
	}
	*p = pendingWrite{old: append(p.old[:0], buf[off:off+len(data)]...),
		start: now, end: now.Add(latmodel.CopyCost(len(data))), off: off}
	*slot = p
	copy(buf[off:], data)
	n.respond(from, opWrite, seq, StatusOK)
}

func (n *Node) serveRead(from ids.ID, seq uint64, id RegionID) {
	rg, ok := n.region(id)
	if !ok {
		n.respond(from, opRead, seq, StatusNoRegion)
		return
	}
	frame, data := completion(opRead, seq, StatusOK, rg.size)
	n.readInto(data, rg, n.proc.Now())
	n.rt.SendFrame(from, frame)
}

// respond sends a completion that carries no region bytes.
func (n *Node) respond(to ids.ID, op uint8, seq uint64, status uint8) {
	frame, _ := completion(op, seq, status, 0)
	n.rt.SendFrame(to, frame)
}

// completion encodes a completion frame, channel tag first, into a frame of
// exact size from the router's free list, and returns it with the window at its end
// that holds a READ's size region bytes (size is 0 for a WRITE). The caller
// writes every byte of that window.
func completion(op uint8, seq uint64, status uint8, size int) (frame, data []byte) {
	n := respHeaderLen
	if op == opRead {
		n += wire.BytesLen(size)
	}
	frame = append(router.Frame(n)[:0], router.ChanMemResp, op)
	frame = binary.LittleEndian.AppendUint64(frame, seq)
	frame = append(frame, status)
	if op == opRead {
		frame = binary.AppendUvarint(frame, uint64(size))
	}
	frame = frame[:n]
	return frame, frame[n-size:]
}

// ReadLen is the length of every READ request frame.
const ReadLen = reqHeaderLen

// WriteLen returns the length of a WRITE request frame for size bytes at
// offset off.
func WriteLen(off, size int) int {
	return reqHeaderLen + wire.UvarintLen(uint64(off)) + wire.BytesLen(size)
}

// EncodeWrite encodes a WRITE request frame, channel tag first, for size
// bytes at offset off of region id into buf, which is reused when it has
// WriteLen(off, size) bytes of capacity and is otherwise replaced by a fresh
// slice of exact size. It returns the frame with the window that holds those
// bytes, zeroed. The caller fills the window and numbers the frame (SetSeq)
// before sending it first, and does not write it again until every
// transmission of it is answered.
func EncodeWrite(buf []byte, id RegionID, off, size int) (frame, data []byte) {
	frame = appendHeader(buf, WriteLen(off, size), opWrite, id)
	frame = binary.AppendUvarint(frame, uint64(off))
	frame = binary.AppendUvarint(frame, uint64(size))
	n := len(frame)
	frame = frame[:n+size] // within the capacity appendHeader reserved
	clear(frame[n:])
	return frame, frame[n:]
}

// EncodeRead encodes a READ request frame, channel tag first, for region id
// into buf as EncodeWrite does; the caller numbers it (SetSeq) before sending
// it.
func EncodeRead(buf []byte, id RegionID) []byte { return appendHeader(buf, ReadLen, opRead, id) }

// appendHeader starts a request frame of n bytes in buf, or in a fresh slice
// if buf has less capacity, with its sequence number 0 (see SetSeq).
func appendHeader(buf []byte, n int, op uint8, id RegionID) []byte {
	if cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	frame := append(buf[:0], router.ChanMemReq, op)
	frame = binary.LittleEndian.AppendUint64(frame, 0)
	return binary.LittleEndian.AppendUint32(frame, uint32(id))
}

// SetSeq numbers a request frame that has not been sent yet. A client numbers
// an operation when it issues it, and the frame keeps the number on every
// retransmission.
func SetSeq(frame []byte, seq uint64) { binary.LittleEndian.PutUint64(frame[seqAt:], seq) }

// Response is a decoded memory-node completion.
type Response struct {
	Op     uint8
	Seq    uint64
	Status uint8
	// Data is a READ's region contents: a view of the completion frame,
	// valid until the frame is released (router.Release) and never written
	// through.
	Data []byte
}

// DecodeResponse parses a completion frame (its channel tag stripped) in
// borrow mode: Data aliases payload.
func DecodeResponse(payload []byte) (Response, error) {
	r := wire.NewReader(payload)
	op, seq, status := r.U8(), r.U64(), r.U8()
	var data []byte
	if op == opRead {
		data = r.BytesView()
	}
	if err := r.Done(); err != nil {
		return Response{}, err
	}
	return Response{Op: op, Seq: seq, Status: status, Data: data}, nil
}

// IsWriteResp reports whether the response completes a write.
func (r Response) IsWriteResp() bool { return r.Op == opWrite }
