package consensus

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ids"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// View numbers views; the leader of view v is Replicas[v % n].
type View uint64

// Slot numbers consensus slots (the total order position of a request).
type Slot uint64

// Message tags, aliased from the wire registry. CTBcast carries the
// consensus-level messages (PREPARE, COMMIT, CHECKPOINT, SEAL_VIEW,
// NEW_VIEW); the auxiliary TBcast channel carries CERTIFY, WILL_CERTIFY,
// WILL_COMMIT and CERTIFY_CHECKPOINT; view change certificate shares
// travel as direct messages.
const (
	tagPrepare     = wire.TagPrepare
	tagCommit      = wire.TagCommit
	tagCheckpoint  = wire.TagCheckpoint
	tagSealView    = wire.TagSealView
	tagNewView     = wire.TagNewView
	tagNewViewFrag = wire.TagNewViewFrag
	tagCertify     = wire.TagCertify
	tagWillCertify = wire.TagWillCertify
	tagWillCommit  = wire.TagWillCommit
	tagCertifyCP   = wire.TagCertifyCP
	tagCertifyVC   = wire.TagCertifyVC
	tagStateReq    = wire.TagStateReq
	tagStateResp   = wire.TagStateResp
	// tagJoinProbe/tagJoinAns are the cold-rejoin handshake: a restarted
	// replica probes for the cluster's sync point and f+1 matching answers
	// (view, stable checkpoint seq, state digest) fix it — no lone
	// Byzantine peer can define where the joiner syncs to. See rejoin.go.
	tagJoinProbe = wire.TagJoinProbe
	tagJoinAns   = wire.TagJoinAns
)

// Header is what a consensus or client RPC message says first: its tag, and
// whichever of view, slot, client and request number its layout leads with.
// A checkpoint's or state transfer's sequence number reads as its slot, and
// so do a read request's pinned version and a reply's At.
type Header struct {
	Tag    uint8
	View   View
	Slot   Slot
	Client ids.ID
	Num    uint64
}

// ReadHeader reads the header of a consensus message (CTBcast, auxiliary or
// direct) or of a client RPC frame, channel tag stripped. It is diagnostic:
// no handler calls it, and it does not judge what follows the header. ok is
// false for an unknown tag and for a message too short for its header.
func ReadHeader(m []byte) (h Header, ok bool) {
	rd := wire.NewReader(m)
	h.Tag = rd.U8()
	switch h.Tag {
	case tagPrepare, tagCommit, tagCertify, tagWillCertify, tagWillCommit:
		h.View, h.Slot = View(rd.U64()), Slot(rd.U64())
	case tagCheckpoint, tagCertifyCP, tagStateReq, tagStateResp:
		h.Slot = Slot(rd.U64())
	case tagSealView, tagNewView, tagNewViewFrag, tagCertifyVC:
		h.View = View(rd.U64())
	case tagReadRequest, tagResponse, tagReadResponse:
		h.Num, h.Slot = rd.U64(), Slot(rd.U64())
	case tagRequest, tagEcho, tagJoinProbe, tagJoinAns:
	default:
		return Header{}, false
	}
	if h.Tag == tagPrepare || h.Tag == tagCommit || h.Tag == tagRequest {
		req := decodeRequest(rd)
		h.Client, h.Num = req.Client, req.Num
	}
	return h, rd.Err() == nil
}

// Request is a client command. A no-op request (view-change filler) has
// Client == ids.None.
type Request struct {
	Client  ids.ID
	Num     uint64
	Payload []byte

	// digest memoizes the request fingerprint. Requests are immutable after
	// construction, so the cache is computed at most once per lineage:
	// copies of a Request (map inserts, parameter passing) carry it along,
	// and xcrypto fingerprinting never re-encodes the request.
	digest   [xcrypto.DigestLen]byte
	digestOK bool
	// subs memoizes a batch container's sub-requests the same way (see
	// Replica.subs): decoded once where the container is delivered, carried
	// along by every copy taken afterwards.
	subs []Request
}

// NoOp returns the view-change filler request.
func NoOp() Request { return Request{Client: ids.None} }

// IsNoOp reports whether the request is the filler.
func (r Request) IsNoOp() bool { return r.Client == ids.None }

// batchClient marks a batch container request (the §9 batching extension:
// the leader packs several client requests into one consensus slot).
const batchClient ids.ID = -2

// IsBatch reports whether the request is a batch container.
func (r Request) IsBatch() bool { return r.Client == batchClient }

// maxBatchLen bounds how many sub-requests a container may claim to hold.
const maxBatchLen = 4096

// encodedBound is an upper bound on the request's encoded size: client and
// number (8 bytes each), the payload and its length prefix.
func (r *Request) encodedBound() int { return 24 + len(r.Payload) }

// EncodeBatch packs several client requests into one container request.
func EncodeBatch(reqs []Request) Request { return encodeBatch(nil, reqs) }

// encodeBatch is EncodeBatch with the container carved from slab (nil: an
// array of its own). A container is never written once made.
func encodeBatch(slab *wire.Slab, reqs []Request) Request {
	size := wire.UvarintLen(uint64(len(reqs)))
	for i := range reqs {
		size += 16 + wire.BytesLen(len(reqs[i].Payload))
	}
	var buf []byte
	if slab == nil {
		buf = make([]byte, 0, size)
	} else {
		buf = slab.Take(size)[:0]
	}
	w := wire.WriterOn(buf)
	w.Uvarint(uint64(len(reqs)))
	for _, q := range reqs {
		q.encode(&w)
	}
	return Request{Client: batchClient, Payload: w.Finish()}
}

// DecodeBatch unpacks a batch container. The sub-requests alias the
// container's payload (borrow mode, like every consensus decode path). A
// container holding a no-op or another container is malformed: the leader
// packs client requests only.
func DecodeBatch(r Request) ([]Request, error) { return decodeBatch(r, nil) }

// subsBlock is how many sub-requests one array of a replica's subsRest
// holds; a container of more than a quarter of that gets an array of its
// own.
const subsBlock = 32

// decodeBatch is DecodeBatch with the sub-requests carved from *rest (nil:
// an array of their own): cap == len, and nothing writes a carved slice
// again once it is handed out but the sub-requests' own digest memos.
func decodeBatch(r Request, rest *[]Request) ([]Request, error) {
	rd := wire.NewReader(r.Payload)
	n := int(rd.Uvarint())
	if n > maxBatchLen || n > rd.Remaining()/17 { // an entry is 17 bytes or more
		return nil, fmt.Errorf("consensus: oversized batch (%d requests)", n)
	}
	var out []Request
	if rest == nil || n > subsBlock/4 {
		out = make([]Request, n)
	} else {
		out = wire.Carve(rest, n, subsBlock)
	}
	for i := range out {
		sub := decodeRequest(rd)
		if rd.Err() != nil || sub.IsNoOp() || sub.IsBatch() {
			clear(out) // a carved slice pins nothing it does not hand out
			return nil, fmt.Errorf("consensus: batch entry %d is not a client request", i)
		}
		out[i] = sub
	}
	if err := rd.Done(); err != nil {
		clear(out)
		return nil, err
	}
	return out, nil
}

func (r Request) encode(w *wire.Writer) {
	w.I64(int64(r.Client))
	w.U64(r.Num)
	w.Bytes(r.Payload)
}

// decodeRequest parses a request in borrow mode: Payload aliases the
// reader's buffer. All consensus decode paths read from per-delivery
// network buffers or private self-delivery copies, which are never
// recycled, so retaining the view (reqStore, decided, prepares) is safe.
func decodeRequest(rd *wire.Reader) Request {
	return Request{Client: ids.ID(rd.I64()), Num: rd.U64(), Payload: rd.BytesView()}
}

// EncodeRequest serializes a request standalone (used by the RPC layer).
func EncodeRequest(r Request) []byte {
	w := wire.NewWriter(24 + len(r.Payload))
	r.encode(w)
	return w.Finish()
}

// DecodeRequest parses a standalone request.
func DecodeRequest(b []byte) (Request, error) {
	rd := wire.NewReader(b)
	r := decodeRequest(rd)
	if err := rd.Done(); err != nil {
		return Request{}, err
	}
	return r, nil
}

// Digest fingerprints a request without charging virtual time (cost is
// charged by callers at the protocol level). The fingerprint is computed
// lazily, once; repeated calls — and calls on copies made after the first
// call — return the cached value and allocate nothing.
func (r *Request) Digest() [xcrypto.DigestLen]byte {
	var buf []byte
	return r.digestWith(&buf)
}

// digestWith is Digest encoding the request, if its digest is not cached
// yet, into *buf, which it keeps the grown buffer in.
func (r *Request) digestWith(buf *[]byte) [xcrypto.DigestLen]byte {
	if !r.digestOK {
		w := wire.WriterOn((*buf)[:0])
		r.encode(&w)
		*buf = w.Finish()
		r.digest = xcrypto.DigestNoCharge(*buf)
		r.digestOK = true
	}
	return r.digest
}

// Prepare is the leader's proposal for a slot.
type Prepare struct {
	View View
	Slot Slot
	Req  Request
}

// appendPrepare encodes a PREPARE frame into w (append-style so a replica
// encodes into the buffer it keeps).
func appendPrepare(w *wire.Writer, p Prepare) {
	w.U8(tagPrepare)
	w.U64(uint64(p.View))
	w.U64(uint64(p.Slot))
	p.Req.encode(w)
}

// EncodePrepare allocates a standalone PREPARE message (tests and Byzantine
// harnesses; a replica uses appendPrepare).
func EncodePrepare(p Prepare) []byte {
	w := wire.NewWriter(40 + len(p.Req.Payload))
	appendPrepare(w, p)
	return w.Finish()
}

// DecodePrepare parses a PREPARE message, tag included, in borrow mode: the
// request's payload is a view of m (see decodeRequest).
func DecodePrepare(m []byte) (Prepare, error) {
	rd := wire.NewReader(m)
	if tag := rd.U8(); tag != tagPrepare {
		return Prepare{}, fmt.Errorf("consensus: tag %d is not a PREPARE", tag)
	}
	p := Prepare{View: View(rd.U64()), Slot: Slot(rd.U64()), Req: decodeRequest(rd)}
	return p, rd.Done()
}

// CommitCert is PΣ: an unforgeable proof, made of f+1 CERTIFY signatures,
// that the leader of View proposed Req in Slot.
type CommitCert struct {
	View View
	Slot Slot
	Req  Request
	Sigs xcrypto.Cert
}

func (c *CommitCert) encode(w *wire.Writer) {
	appendCommitHead(w, c.View, c.Slot, c.Req)
	c.Sigs.AppendTo(w)
}

// appendCommitHead writes what a COMMIT holds before its certificate, so a
// replica that made the certificate appends it straight after
// (xcrypto.Shares.AppendCert) and builds no CommitCert to send.
func appendCommitHead(w *wire.Writer, v View, s Slot, req Request) {
	w.U64(uint64(v))
	w.U64(uint64(s))
	req.encode(w)
}

// encodedLen returns how many bytes encode writes.
func (c *CommitCert) encodedLen() int {
	return 16 + 16 + wire.BytesLen(len(c.Req.Payload)) + c.Sigs.Len()
}

func decodeCommitCert(rd *wire.Reader) (CommitCert, error) {
	c := CommitCert{View: View(rd.U64()), Slot: Slot(rd.U64()), Req: decodeRequest(rd)}
	var err error
	c.Sigs, err = xcrypto.ReadCert(rd)
	return c, err
}

// commitLog holds COMMIT certificates in ascending slot order, one per slot.
// It is a sorted slice rather than a map keyed by slot because a CommitCert
// is larger than the 128 bytes a Go map keeps in place: a map would allocate
// every entry it inserts.
type commitLog []CommitCert

// search returns where slot s's COMMIT is, or would go, and whether l has it.
func (l commitLog) search(s Slot) (int, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].Slot >= s })
	return i, i < len(l) && l[i].Slot == s
}

// at returns slot s's COMMIT, nil if l has none. The pointer is good until
// the next change to l.
func (l commitLog) at(s Slot) *CommitCert {
	if i, ok := l.search(s); ok {
		return &l[i]
	}
	return nil
}

// put records c as its slot's COMMIT, in place of the one l may hold.
func (l *commitLog) put(c CommitCert) {
	if i, ok := l.search(c.Slot); ok {
		(*l)[i] = c
	} else {
		*l = slices.Insert(*l, i, c)
	}
}

// window returns the COMMITs of slots [lo, hi), a view of l.
func (l commitLog) window(lo, hi Slot) commitLog {
	i, _ := l.search(lo)
	j, _ := l.search(hi)
	return l[i:j]
}

// keep drops the COMMITs of slots outside [lo, hi).
func (l *commitLog) keep(lo, hi Slot) {
	n := copy(*l, l.window(lo, hi))
	clear((*l)[n:])
	*l = (*l)[:n]
}

// Checkpoint is CΣ: the application state digest after applying all slots
// below Seq, signed by f+1 replicas, authorizing work on
// [Seq, Seq+Window-1].
type Checkpoint struct {
	Seq         Slot
	StateDigest [xcrypto.DigestLen]byte
	Sigs        xcrypto.Cert
}

func (c *Checkpoint) encode(w *wire.Writer) {
	w.U64(uint64(c.Seq))
	w.Raw(c.StateDigest[:])
	c.Sigs.AppendTo(w)
}

func decodeCheckpoint(rd *wire.Reader) (Checkpoint, error) {
	c := Checkpoint{Seq: Slot(rd.U64())}
	copy(c.StateDigest[:], rd.RawView(xcrypto.DigestLen))
	var err error
	c.Sigs, err = xcrypto.ReadCert(rd)
	return c, err
}

// Supersedes reports whether c authorizes strictly newer slots than other.
func (c *Checkpoint) Supersedes(other *Checkpoint) bool { return c.Seq > other.Seq }

// CertifiedState is the per-replica state attested during a view change:
// the replica's latest checkpoint and its most recent COMMIT per open slot
// (§5.3), in slot order.
type CertifiedState struct {
	View       View
	Checkpoint Checkpoint
	Commits    commitLog
}

// encodeCertifiedState encodes s into a buffer sized for it from the start, so
// it allocates once.
func encodeCertifiedState(s *CertifiedState) []byte {
	size := 8 + 8 + xcrypto.DigestLen + s.Checkpoint.Sigs.Len() + wire.UvarintLen(uint64(len(s.Commits)))
	for i := range s.Commits {
		size += s.Commits[i].encodedLen()
	}
	w := wire.NewWriter(size)
	w.U64(uint64(s.View))
	s.Checkpoint.encode(w)
	w.Uvarint(uint64(len(s.Commits)))
	for i := range s.Commits {
		s.Commits[i].encode(w)
	}
	return w.Finish()
}

func decodeCertifiedState(b []byte) (CertifiedState, error) {
	rd := wire.NewReader(b)
	s := CertifiedState{View: View(rd.U64())}
	var err error
	s.Checkpoint, err = decodeCheckpoint(rd)
	if err != nil {
		return s, err
	}
	n := int(rd.Uvarint())
	if n > 4096 {
		return s, fmt.Errorf("consensus: oversized certified state (%d commits)", n)
	}
	s.Commits = make(commitLog, 0, n)
	for i := 0; i < n; i++ {
		c, err := decodeCommitCert(rd)
		if err != nil {
			return s, err
		}
		if i > 0 && c.Slot <= s.Commits[i-1].Slot {
			return s, fmt.Errorf("consensus: certified state lists slot %d after %d", c.Slot, s.Commits[i-1].Slot)
		}
		s.Commits = append(s.Commits, c)
	}
	if err := rd.Done(); err != nil {
		return s, err
	}
	return s, nil
}

// ReplicaCert is one entry of a NEW_VIEW message: replica About's certified
// state with f+1 attesting signatures. The signatures cover StateBytes; State
// is StateBytes decoded, once, where the certificate is made.
type ReplicaCert struct {
	About      ids.ID
	StateBytes []byte
	State      CertifiedState
	Sigs       xcrypto.Cert
}

// newReplicaCert decodes the certified state a certificate is about.
func newReplicaCert(about ids.ID, stateBytes []byte, sigs xcrypto.Cert) (ReplicaCert, error) {
	cs, err := decodeCertifiedState(stateBytes)
	return ReplicaCert{About: about, StateBytes: stateBytes, State: cs, Sigs: sigs}, err
}

// NewViewMsg announces the start of View with the certified states that
// constrain the new leader's proposals. plan is what they amount to, worked
// out once when the message is accepted (viewchange.go).
type NewViewMsg struct {
	View  View
	Certs []ReplicaCert
	plan  nvPlan
}

func encodeNewView(nv NewViewMsg) []byte {
	w := wire.NewWriter(512)
	w.U8(tagNewView)
	w.U64(uint64(nv.View))
	w.Uvarint(uint64(len(nv.Certs)))
	for _, c := range nv.Certs {
		w.I64(int64(c.About))
		w.Bytes(c.StateBytes)
		c.Sigs.AppendTo(w)
	}
	return w.Finish()
}

func decodeNewView(rd *wire.Reader) (NewViewMsg, error) {
	nv := NewViewMsg{View: View(rd.U64())}
	n := int(rd.Uvarint())
	if n > 64 {
		return nv, fmt.Errorf("consensus: oversized NEW_VIEW (%d certs)", n)
	}
	for i := 0; i < n; i++ {
		about, stateBytes := ids.ID(rd.I64()), rd.Bytes()
		sigs, err := xcrypto.ReadCert(rd)
		if err != nil {
			return nv, err
		}
		c, err := newReplicaCert(about, stateBytes, sigs)
		if err != nil {
			return nv, err
		}
		nv.Certs = append(nv.Certs, c)
	}
	return nv, rd.Err()
}

// nvFragOverhead bounds the framing around one NEW_VIEW fragment's chunk:
// tag (1) + view (8) + idx/total uvarints (≤5 each) + chunk length prefix
// (≤5), rounded up for headroom.
const nvFragOverhead = 32

// nvFrag is one chunk of a NEW_VIEW message too large for the CTBcast
// per-message cap. The chunks of one train, concatenated in index order,
// are exactly the bytes encodeNewView produced (leading tag included).
// Trains ride the leader's own FIFO non-equivocated channel, so every
// correct receiver that delivers the full train reassembles identical
// bytes; a train interrupted by a summary jump is discarded, same as a
// monolithic NEW_VIEW the summary skipped.
type nvFrag struct {
	view       View
	idx, total int
	chunk      []byte
}

func encodeNewViewFrag(f nvFrag) []byte {
	w := wire.NewWriter(nvFragOverhead + len(f.chunk))
	w.U8(tagNewViewFrag)
	w.U64(uint64(f.view))
	w.Uvarint(uint64(f.idx))
	w.Uvarint(uint64(f.total))
	w.Bytes(f.chunk)
	return w.Finish()
}

func decodeNewViewFrag(rd *wire.Reader) (nvFrag, error) {
	f := nvFrag{View(rd.U64()), int(rd.Uvarint()), int(rd.Uvarint()), rd.Bytes()}
	if err := rd.Err(); err != nil {
		return f, err
	}
	if f.total < 2 || f.idx < 0 || f.idx >= f.total || len(f.chunk) == 0 {
		return f, fmt.Errorf("consensus: malformed NEW_VIEW fragment %d/%d (%dB)", f.idx, f.total, len(f.chunk))
	}
	return f, nil
}
