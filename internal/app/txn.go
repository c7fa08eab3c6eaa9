package app

import "repro/internal/wire"

// This file is the generic cross-shard transaction protocol surface: the
// reserved opcode envelope the shard layer's 2PC coordinator encodes its
// consensus-ordered commands in, the shared status bytes every
// transactional application answers with, and ApplyTxn, the dispatcher
// that routes envelope commands to an application's TxnParticipant hooks.
// Because the envelope is application-agnostic, the shard layer never
// needs to know a single app-specific opcode.

// Generic status codes shared by the transactional applications and the
// shard layer. The values deliberately coincide with the Redis-style
// store's historical status bytes, so RKV's wire format (and the recorded
// cross-shard benchmarks) are unchanged.
const (
	// StatusOK acknowledges a command (and is a prepare vote of "yes").
	StatusOK uint8 = 0
	// StatusBadReq refuses a malformed command.
	StatusBadReq uint8 = 2
	// StatusLocked refuses a request touching a key held by an in-flight
	// transaction when the wait queue cannot park it; the caller retries
	// after the transaction resolves.
	StatusLocked uint8 = 4
	// StatusConflict is a prepare vote of "no": some key is already locked
	// by a different transaction, or the txid is tombstoned.
	StatusConflict uint8 = 5
	// StatusAborted reports a cross-shard transaction that resolved as
	// aborted (a "no" vote from a participant, or prepare timeout).
	StatusAborted uint8 = 6
)

// The generic transaction envelope occupies a reserved opcode range:
// applications implementing TxnParticipant must not claim opcodes at or
// above TxnOpBase for their own requests.
const (
	// TxnOpBase is the first reserved opcode.
	TxnOpBase uint8 = 0xF0
	// OpTxnPrepare locks a fragment's keys and stages it (2PC phase 1).
	OpTxnPrepare uint8 = 0xF0
	// OpTxnCommit installs a staged fragment and releases its locks.
	OpTxnCommit uint8 = 0xF1
	// OpTxnAbort discards a staged fragment and releases its locks.
	OpTxnAbort uint8 = 0xF2
	// OpTxnDecide records the coordinator group's durable decision. The
	// coordinator group is always a participant, so a commit decision the
	// log accepts also installs that group's own staged fragment in the
	// same command, answering as OpTxnCommit does (status, then the receipt
	// if any).
	OpTxnDecide uint8 = 0xF3
	// OpTxnQueryDecision asks the coordinator group for txid's recorded
	// decision — and, query-or-abort, tombstones txid as aborted if no
	// decision exists yet, so a late commit can never race the query. It
	// is the recovery path for a participant stranded past the commit
	// fan-out's bounded retry backoff.
	OpTxnQueryDecision uint8 = 0xF4
	// OpTxnListStaged asks a group which transactions it holds prepared but
	// undecided: the sweep step of commit-phase recovery. Read-only, and
	// ordered like every other step, so every correct replica gives the
	// same answer and the client's f+1 matching-response quorum vouches
	// for it.
	OpTxnListStaged uint8 = 0xF5
)

// The EncodeTxn* encoders append the command to dst and return it extended,
// so a caller that sends one command per record may keep the record's buffer
// (nil gives a fresh slice).

// EncodeTxnPrepare builds a 2PC prepare carrying one participant shard's
// fragment of the original multi-key write. coord names the coordinator
// group (the group whose decision log resolves the transaction), so a
// stranded participant knows where to send OpTxnQueryDecision.
func EncodeTxnPrepare(dst []byte, txid, coord uint64, fragment []byte) []byte {
	w := wire.WriterOn(dst)
	w.Grow(1 + 8 + wire.UvarintLen(coord) + wire.BytesLen(len(fragment)))
	w.U8(OpTxnPrepare)
	w.U64(txid)
	w.Uvarint(coord)
	w.Bytes(fragment)
	return w.Finish()
}

// EncodeTxnQueryDecision builds the coordinator-group query for txid's
// decision (query-or-abort: the query itself tombstones an undecided txid
// as aborted).
func EncodeTxnQueryDecision(dst []byte, txid uint64) []byte {
	return encodeTxnOp(dst, OpTxnQueryDecision, txid)
}

// DecodeTxnQueryDecision parses an OpTxnQueryDecision response.
func DecodeTxnQueryDecision(res []byte) (commit, ok bool) {
	if len(res) != 2 || res[0] != StatusOK {
		return false, false
	}
	return res[1] != 0, true
}

// stagedListCap bounds how many staged transactions one OpTxnListStaged
// answer carries; a group holding more answers the oldest (lowest txid)
// first and the next sweep, after those resolved, picks up the rest.
const stagedListCap = 256

// EncodeTxnListStaged builds the recovery sweep's question to one group.
func EncodeTxnListStaged(dst []byte) []byte { return append(dst, OpTxnListStaged) }

// DecodeTxnListStaged parses an OpTxnListStaged response: the group's
// staged transactions ascending by txid, each with its coordinator group.
func DecodeTxnListStaged(res []byte) ([]StagedTxn, bool) {
	if len(res) < 2 || res[0] != StatusOK {
		return nil, false
	}
	rd := wire.NewReader(res[1:])
	n, ok := readCount(rd, stagedListCap)
	if !ok {
		return nil, false
	}
	staged := make([]StagedTxn, n)
	for i := range staged {
		staged[i] = StagedTxn{Txid: rd.U64(), Coord: rd.Uvarint()}
	}
	if rd.Done() != nil {
		return nil, false
	}
	return staged, true
}

// EncodeTxnCommit builds a 2PC commit for txid.
func EncodeTxnCommit(dst []byte, txid uint64) []byte { return encodeTxnOp(dst, OpTxnCommit, txid) }

// EncodeTxnAbort builds a 2PC abort for txid.
func EncodeTxnAbort(dst []byte, txid uint64) []byte { return encodeTxnOp(dst, OpTxnAbort, txid) }

// EncodeTxnDecide builds the coordinator group's decision record for txid.
func EncodeTxnDecide(dst []byte, txid uint64, commit bool) []byte {
	w := wire.WriterOn(dst)
	w.Grow(1 + 8 + 1)
	w.U8(OpTxnDecide)
	w.U64(txid)
	w.Bool(commit)
	return w.Finish()
}

func encodeTxnOp(dst []byte, op uint8, txid uint64) []byte {
	w := wire.WriterOn(dst)
	w.Grow(1 + 8)
	w.U8(op)
	w.U64(txid)
	return w.Finish()
}

// txnReceiptsMax bounds the per-leg receipt count of a transaction
// response (a transaction touches at most one fragment per shard).
const txnReceiptsMax = 4096

// EncodeTxnReceipts builds the committed-transaction response that carries
// per-leg commit receipts, in ascending shard order: a StatusOK byte, the
// leg count, then each leg's receipt. Applications whose Commit returns no
// receipts keep the historical one-byte []byte{StatusOK} response instead
// — DecodeTxnReceipts tells the two apart.
func EncodeTxnReceipts(dst []byte, receipts [][]byte) []byte {
	size := 8
	for _, r := range receipts {
		size += len(r) + 4
	}
	w := wire.WriterOn(dst)
	w.Grow(size)
	w.U8(StatusOK)
	w.Uvarint(uint64(len(receipts)))
	for _, r := range receipts {
		w.Bytes(r)
	}
	return w.Finish()
}

// DecodeTxnReceipts parses a committed-transaction response into its
// per-leg commit receipts. ok=false for the receipt-less one-byte StatusOK
// acknowledgement (or anything else that is not a receipts envelope).
func DecodeTxnReceipts(res []byte) ([][]byte, bool) {
	if len(res) < 2 || res[0] != StatusOK {
		return nil, false
	}
	rd := wire.NewReader(res)
	rd.U8()
	n, ok := readCount(rd, txnReceiptsMax)
	if !ok {
		return nil, false
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rd.Bytes())
	}
	if rd.Done() != nil {
		return nil, false
	}
	return out, true
}

// ApplyTxn dispatches a generic transaction command to the participant's
// hooks, returning (response, true); any request below the reserved range
// returns (nil, false). Transactional applications call it at the top of
// Apply, so every 2PC step is an ordinary consensus-ordered command. The
// response is appended to dst, the application's answer buffer, and only
// once the hook has returned: a commit or abort may run parked requests
// through the application's Apply, which write the same buffer.
func ApplyTxn(p TxnParticipant, dst, req []byte) ([]byte, bool) {
	if len(req) == 0 || req[0] < TxnOpBase {
		return nil, false
	}
	rd := wire.NewReader(req)
	op := rd.U8()
	switch op {
	case OpTxnPrepare:
		txid := rd.U64()
		coord := rd.Uvarint()
		frag := rd.BytesView() // Prepare copies what it stages
		if rd.Done() != nil {
			return append(dst, StatusBadReq), true
		}
		return append(dst, p.Prepare(txid, coord, frag)), true
	case OpTxnCommit:
		txid := rd.U64()
		if rd.Done() != nil {
			return append(dst, StatusBadReq), true
		}
		return commitResponse(dst, p, txid), true
	case OpTxnAbort:
		txid := rd.U64()
		if rd.Done() != nil {
			return append(dst, StatusBadReq), true
		}
		return append(dst, p.Abort(txid)), true
	case OpTxnDecide:
		txid := rd.U64()
		commit := rd.Bool()
		if rd.Done() != nil {
			return append(dst, StatusBadReq), true
		}
		st := p.Decided(txid, commit)
		if st != StatusOK || !commit {
			return append(dst, st), true
		}
		return commitResponse(dst, p, txid), true
	case OpTxnQueryDecision:
		txid := rd.U64()
		if rd.Done() != nil {
			return append(dst, StatusBadReq), true
		}
		commit := p.QueryDecision(txid)
		w := wire.WriterOn(dst)
		w.U8(StatusOK)
		w.Bool(commit)
		return w.Finish(), true
	case OpTxnListStaged:
		if rd.Done() != nil {
			return append(dst, StatusBadReq), true
		}
		staged := p.StagedTxns()
		if len(staged) > stagedListCap {
			staged = staged[:stagedListCap]
		}
		w := wire.WriterOn(dst)
		w.Grow(8 + 16*len(staged))
		w.U8(StatusOK)
		w.Uvarint(uint64(len(staged)))
		for _, tx := range staged {
			w.U64(tx.Txid)
			w.Uvarint(tx.Coord)
		}
		return w.Finish(), true
	default:
		return append(dst, StatusBadReq), true
	}
}

// commitResponse installs txid's staged fragment through the participant's
// Commit and appends its status to dst, followed by the receipt when there
// is one: the answer of OpTxnCommit, and of an OpTxnDecide(commit) that the
// coordinator group's decision log accepted. Commit runs first, so the
// parked requests it releases are answered before dst is written.
func commitResponse(dst []byte, p TxnParticipant, txid uint64) []byte {
	st, receipt := p.Commit(txid)
	return append(append(dst, st), receipt...)
}
