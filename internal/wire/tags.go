package wire

// This file is the wire-tag registry: every channel tag, message tag,
// opcode and status byte that crosses a transport frame is declared here
// (application-level opcodes and statuses live in internal/app, the other
// registry package). Protocol packages alias these under their local
// names; defining a tag-like constant from a raw literal anywhere else is
// a tagregistry lint error, so a new tag cannot be minted without showing
// up here — and the `//wire:client-reply` markers below are cross-checked
// against the byz adversary policies, so a new client-facing reply tag
// cannot dodge the Byzantine harness either.

// Channel tags: the first byte of every frame, demultiplexed by
// internal/router.
const (
	ChanMemReq   uint8 = 1 // host -> memory node: register READ/WRITE
	ChanMemResp  uint8 = 2 // memory node -> host: completions
	ChanRing     uint8 = 3 // message-ring RDMA writes (sender -> receiver)
	ChanRingAck  uint8 = 4 // tail-broadcast acknowledgements
	ChanRPC      uint8 = 5 // client <-> replica requests/responses
	ChanDirect   uint8 = 6 // consensus direct messages (view-change shares, echoes, state transfer, rejoin)
	ChanBaseline uint8 = 7 // baseline protocols (Mu, MinBFT)
	ChanSummary  uint8 = 8 // CTBcast summary certificate shares
)

// CTBcast ring-payload tags (first byte of a ChanRing / ChanRingAck
// payload), plus the summary-share tag riding ChanSummary.
const (
	RingTagLock         uint8 = 1 // broadcaster channel: <LOCK, k, m>
	RingTagSigned       uint8 = 2 // signed slow-path frames
	RingTagSummary      uint8 = 3 // summary gating frames
	RingTagLocked       uint8 = 4 // receivers' LOCKED channels: <LOCKED, k, m>
	RingTagSummaryShare uint8 = 9 // CERTIFY_SUMMARY share (ChanSummary)
)

// Consensus message tags (inside CTBcast/TBcast payloads and ChanDirect
// frames). CTBcast carries PREPARE..NEW_VIEW; the auxiliary TBcast channel
// carries the CERTIFY family; the rest ride ChanDirect.
const (
	TagPrepare     uint8 = 1
	TagCommit      uint8 = 2
	TagCheckpoint  uint8 = 3
	TagSealView    uint8 = 4
	TagNewView     uint8 = 5
	TagNewViewFrag uint8 = 6 // one chunk of a NEW_VIEW exceeding the channel cap
	TagCertify     uint8 = 10
	TagWillCertify uint8 = 11
	TagWillCommit  uint8 = 12
	TagCertifyCP   uint8 = 13
	TagCertifyVC   uint8 = 20
	TagStateReq    uint8 = 21
	TagStateResp   uint8 = 22
	TagEcho        uint8 = 23
	TagJoinProbe   uint8 = 26 // cold rejoin: restarted replica's sync-point probe
	TagJoinAns     uint8 = 27 // cold rejoin: (view, stable checkpoint) answer
)

// Client RPC tags (first byte after ChanRPC). The //wire:client-reply
// markers flag the reply tags a Byzantine replica can forge toward a
// client; the tagregistry pass fails if the byz.ForgeReads policy does not
// exercise every marked tag.
const (
	TagRequest      uint8 = 30
	TagResponse     uint8 = 31 //wire:client-reply [num, slot, flags, result]
	TagReadRequest  uint8 = 32
	TagReadResponse uint8 = 33 //wire:client-reply [num, version, flags, result]
)

// TagReadResponse flag bits.
const (
	ReadFlagServed  uint8 = 1 << 0 // the replica answered (clear = refused)
	ReadFlagCrossed uint8 = 1 << 1 // pinned read may straddle a transaction
)

// TagResponse flag bits.
const (
	RespFlagParked uint8 = 1 << 0 // ordered read parked in the txn wait queue
)

// Memory-node protocol: op codes of ChanMemReq frames and status bytes of
// ChanMemResp replies.
const (
	MemOpWrite uint8 = 1
	MemOpRead  uint8 = 2

	MemStatusOK         uint8 = 0
	MemStatusPermDenied uint8 = 1
	MemStatusNoRegion   uint8 = 2
	MemStatusBadRequest uint8 = 3
)
