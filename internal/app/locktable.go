package app

import (
	"bytes"
	"iter"
	"sort"

	"repro/internal/wire"
)

// LockTable is the reusable 2PC participant component, extracted from the
// Redis-style store so every application can opt into cross-shard
// transactions: a per-key lock table with staged write fragments, conflict
// votes, a bounded abort/decision tombstone log, and a per-key FIFO wait
// queue that parks requests blocked on a lock until it releases. It is
// embedded by an application, which supplies three callbacks:
//
//	keysOf  — extracts (and validates) the keys of a write fragment; the
//	          LockTable reads them before the application's next call
//	install — applies a committed fragment to application state and may
//	          return a commit receipt (e.g. the fills of an order-book
//	          transfer leg) that travels back in the commit response; the
//	          LockTable keeps it, so it is a fresh slice, not the
//	          application's answer buffer; it keeps no view of the
//	          fragment, whose buffer the next Prepare may reuse
//	exec    — executes a parked request once its keys are free
//	          (typically the application's own Apply; its answer is
//	          copied at once, as the next exec may overwrite it)
//
// All LockTable state is deterministic and carried through
// SnapshotTo/RestoreFrom, so a replica restored via state transfer agrees
// on in-flight transactions and parked requests, not just committed data.
//
// What the LockTable keeps it owns: Prepare's caller hands over a view
// (ApplyTxn decodes the fragment out of the request) and a staged fragment
// is Prepare's copy of it, a parked request is copied, and a commit receipt
// or a released result is the LockTable's own slice. A lock's key is a
// string view of the staged fragment's bytes (keyString), so locking a key
// allocates nothing. A staged transaction's record, its key list and its
// fragment buffer are recycled: Commit and Abort put them on a free list
// that Prepare takes from, so the list never holds more records than were
// staged at once. A recycled fragment buffer is written again, which is
// sound because install copies whatever it keeps of a fragment and Commit
// and Abort delete every lock the fragment's views key before they release
// it; the staged record's key list is emptied with it, and no other map
// keeps those strings (a parked request's keys are its own).
type LockTable struct {
	keysOf  func(fragment []byte) ([][]byte, error)
	install func(fragment []byte) []byte
	exec    func(req []byte) []byte

	// locks maps a key to the transaction holding it; staged holds each
	// in-flight transaction's fragment (installed on Commit, discarded on
	// Abort). The lock table is derivable from staged (every lock belongs
	// to exactly one staged transaction), so it is rebuilt on restore.
	locks  map[string]uint64
	staged map[uint64]*stagedTxn
	free   wire.FreeList[stagedTxn] // released records, their key lists emptied

	// Decision/tombstone log (bounded FIFO so a long run cannot grow it
	// without bound): commit/abort decisions recorded by the coordinator
	// group, plus abort tombstones that refuse a prepare delayed past its
	// own abort (which would otherwise strand the keys locked forever).
	decisions     map[uint64]bool
	decisionOrder txRing

	// Committed-receipt cache (bounded FIFO, non-empty receipts only): a
	// commit retransmitted after it applied re-answers with the same
	// receipt, so a lost first ack cannot downgrade the transaction
	// driver's response from per-leg results to a bare StatusOK.
	receipts     map[uint64][]byte
	receiptOrder txRing

	// The FIFO wait queue: requests that hit a transaction-locked key are
	// parked here (in arrival = ticket order) and executed by the Apply
	// that releases their last blocking lock. Results accumulate in
	// released until the replica drains them via TakeReleased. waiting is
	// the incremental per-key waiter count behind Prepare's fairness check
	// (maintained by Park / drain / RestoreFrom).
	parked       []parkedReq
	waiting      map[string]int
	nextTicket   uint64
	parkedTicket uint64
	released     []Release
}

// stagedTxn is one prepared (locked but not yet committed) transaction.
type stagedTxn struct {
	keys  []string // locked keys, in fragment order: views of frag
	frag  []byte   // the staged write fragment
	coord uint64   // coordinator group (whose decision log recovery replays)
}

// parkedReq is one wait-queue entry.
type parkedReq struct {
	ticket uint64
	keys   []string // every key the request waits on
	req    []byte   // the original request, re-executed on release
}

// decisionCap bounds the decision/tombstone log and the receipt cache.
const decisionCap = 4096

// txRing is the eviction order of the decision log or the receipt cache:
// the txids they keep, oldest first from head. It keeps one array, grown as
// txids arrive up to decisionCap and then written in place, so a full log
// costs nothing per decision.
type txRing struct {
	ids  []uint64
	head int // the oldest txid's index once the ring is full, else 0
}

// push appends txid and, when the ring already held decisionCap txids,
// evicts and returns the oldest.
func (r *txRing) push(txid uint64) (evicted uint64, full bool) {
	if len(r.ids) < decisionCap {
		r.ids = append(r.ids, txid)
		return 0, false
	}
	evicted, r.ids[r.head] = r.ids[r.head], txid
	r.head = (r.head + 1) % len(r.ids)
	return evicted, true
}

// All yields the kept txids, oldest first.
func (r *txRing) All() iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		for _, part := range [2][]uint64{r.ids[r.head:], r.ids[:r.head]} {
			for _, id := range part {
				if !yield(id) {
					return
				}
			}
		}
	}
}

// restore empties the ring for n txids, to be pushed oldest first.
func (r *txRing) restore(n int) { *r = txRing{ids: make([]uint64, 0, min(n, decisionCap))} }

// parkedCap bounds the wait queue; beyond it requests are refused with
// StatusLocked and fall back to caller-side retry.
const parkedCap = 1024

// NewLockTable builds an empty lock table wired to its application.
func NewLockTable(keysOf func([]byte) ([][]byte, error), install func([]byte) []byte, exec func([]byte) []byte) *LockTable {
	return &LockTable{
		keysOf:    keysOf,
		install:   install,
		exec:      exec,
		locks:     make(map[string]uint64),
		staged:    make(map[uint64]*stagedTxn),
		decisions: make(map[uint64]bool),
		receipts:  make(map[uint64][]byte),
		waiting:   make(map[string]int),
	}
}

// Prepare locks the fragment's keys and stages it, stamped with the
// coordinator group whose decision log commit-phase recovery replays
// (TxnParticipant hook). Lock acquisition is all-or-nothing: a conflict on
// any key votes StatusConflict and leaves nothing locked, so concurrent
// prepares cannot deadlock on partial lock sets. Re-delivered prepares for
// an already-staged txid vote StatusOK (and re-stamp the coordinator: an
// honest driver's copies carry the same one); a prepare for a txid already
// tombstoned here is refused — without the abort tombstone, a prepare
// delayed past its own abort (which no-ops on the unknown txid) would
// strand the keys locked forever.
//
// Fairness: a prepare also queues behind parked requests — a key some
// request is already waiting on votes StatusConflict exactly like a held
// lock. A prepare cannot park (the 2PC coordinator is waiting on its
// vote), but without this rule a stream of back-to-back transactions could
// re-lock a key in the instant between one transaction's release and the
// wait queue's drain ever seeing all of a multi-key waiter's keys free,
// starving the parked request indefinitely.
func (lt *LockTable) Prepare(txid, coord uint64, fragment []byte) uint8 {
	if _, decided := lt.decisions[txid]; decided {
		return StatusConflict
	}
	if tx, dup := lt.staged[txid]; dup {
		tx.coord = coord
		return StatusOK
	}
	keys, err := lt.keysOf(fragment)
	if err != nil || len(keys) == 0 {
		return StatusBadReq
	}
	for _, k := range keys {
		if holder, held := lt.locks[string(k)]; held && holder != txid {
			return StatusConflict
		}
	}
	if len(lt.parked) > 0 {
		for _, k := range keys {
			if lt.waiting[string(k)] > 0 {
				return StatusConflict
			}
		}
	}
	tx := lt.free.Get()
	if tx == nil {
		tx = new(stagedTxn)
	}
	tx.frag, tx.coord = append(tx.frag[:0], fragment...), coord
	lt.lock(txid, tx)
	lt.staged[txid] = tx
	return StatusOK
}

// lock takes tx's locks for txid: its keys are those keysOf reads in the
// staged copy tx.frag, so each lock's key is a view of the staged bytes. A
// fragment keysOf accepted once reads the same keys again.
func (lt *LockTable) lock(txid uint64, tx *stagedTxn) {
	keys, _ := lt.keysOf(tx.frag)
	for _, k := range keys {
		ks := keyString(k)
		lt.locks[ks] = txid
		tx.keys = append(tx.keys, ks)
	}
}

// Commit installs a staged fragment, releases its locks and drains the
// wait queue (TxnParticipant hook). The receipt is whatever install
// returned for the fragment (nil for the KV stores; the leg fills for the
// order book) and travels back in the commit response so the transaction
// driver can surface per-leg results. Unknown txids acknowledge StatusOK
// with no receipt so commits are idempotent under retransmission.
func (lt *LockTable) Commit(txid uint64) (uint8, []byte) {
	tx, ok := lt.staged[txid]
	if !ok {
		// Re-delivered commit: re-answer with the cached receipt (if the
		// first commit produced one) so a lost first ack cannot strip the
		// per-leg results from the transaction response.
		return StatusOK, lt.receipts[txid]
	}
	for _, k := range tx.keys {
		delete(lt.locks, k)
	}
	delete(lt.staged, txid)
	receipt := lt.install(tx.frag)
	lt.release(tx)
	if len(receipt) > 0 {
		lt.rememberReceipt(txid, receipt)
	}
	lt.drain()
	return StatusOK, receipt
}

// rememberReceipt caches a commit receipt in the bounded FIFO.
func (lt *LockTable) rememberReceipt(txid uint64, receipt []byte) {
	if _, dup := lt.receipts[txid]; dup {
		return
	}
	if evict, full := lt.receiptOrder.push(txid); full {
		delete(lt.receipts, evict)
	}
	lt.receipts[txid] = receipt
}

// Abort discards a staged fragment, releases its locks and drains the
// wait queue, idempotently (TxnParticipant hook). It always records an
// abort tombstone so a prepare ordered after the abort is refused rather
// than staged with no coordinator left to resolve it. (The log is
// FIFO-capped, so a prepare delayed past decisionCap later decisions could
// still slip through — the bounded-memory tradeoff.)
func (lt *LockTable) Abort(txid uint64) uint8 {
	lt.record(txid, false)
	tx, ok := lt.staged[txid]
	if !ok {
		return StatusOK
	}
	for _, k := range tx.keys {
		delete(lt.locks, k)
	}
	delete(lt.staged, txid)
	lt.release(tx)
	lt.drain()
	return StatusOK
}

// release keeps a resolved transaction's record, its key list and its
// fragment buffer for the next Prepare. Writing that buffer again is sound
// because install copies what it keeps of a fragment.
func (lt *LockTable) release(tx *stagedTxn) {
	clear(tx.keys)
	*tx = stagedTxn{keys: tx.keys[:0], frag: tx.frag[:0]}
	lt.free.Put(tx)
}

// Decided records the coordinator group's durable decision for txid
// (TxnParticipant hook). First write wins: if a decision is already logged
// and disagrees — a query-or-abort tombstone from a recovery sweep beat
// this decide into the log — the existing record stands and the caller
// learns via StatusConflict, so a transaction driver whose commit decide
// lost the race reports the transaction aborted instead of committed.
func (lt *LockTable) Decided(txid uint64, commit bool) uint8 {
	if prev, dup := lt.decisions[txid]; dup && prev != commit {
		return StatusConflict
	}
	lt.record(txid, commit)
	return StatusOK
}

// StagedTxns lists the prepared-but-undecided transactions ascending by
// txid (TxnParticipant hook — what a recovery sweep reads).
func (lt *LockTable) StagedTxns() []StagedTxn {
	out := make([]StagedTxn, 0, len(lt.staged))
	for id, tx := range lt.staged {
		out = append(out, StagedTxn{Txid: id, Coord: tx.coord})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Txid < out[j].Txid })
	return out
}

// QueryDecision returns the recorded decision for txid, first tombstoning
// an undecided txid as aborted (TxnParticipant hook, query-or-abort): the
// query is itself a consensus-ordered command, so after it executes the
// outcome is durable on every replica of the coordinator group and a
// straggling commit decide behind it is refused by Decided's first-write
// rule. Presumed abort makes the no-record answer correct: a coordinator
// that logged nothing can only have aborted (or will, when its own decide
// hits the tombstone).
func (lt *LockTable) QueryDecision(txid uint64) bool {
	if commit, ok := lt.decisions[txid]; ok {
		return commit
	}
	lt.record(txid, false)
	return false
}

// record appends to the bounded decision log, first write wins: a
// transaction's outcome is immutable once logged, so a cancelled
// decide(commit) straggling in the pipeline behind its own abort cannot
// flip the durable record (decision replay must never disagree with what
// participants were told).
func (lt *LockTable) record(txid uint64, commit bool) {
	if _, dup := lt.decisions[txid]; dup {
		return
	}
	if evict, full := lt.decisionOrder.push(txid); full {
		delete(lt.decisions, evict)
	}
	lt.decisions[txid] = commit
}

// Locked reports whether key is held by an in-flight transaction.
func (lt *LockTable) Locked(key []byte) bool {
	_, held := lt.locks[string(key)]
	return held
}

// AnyLocked reports whether any of the keys is transaction-locked.
func (lt *LockTable) AnyLocked(keys ...[]byte) bool {
	for _, k := range keys {
		if lt.Locked(k) {
			return true
		}
	}
	return false
}

// Park appends a request blocked on transaction locks to the FIFO wait
// queue and returns its ticket; 0 means the queue is full and the caller
// must refuse with StatusLocked instead. keys must be every key the
// request will touch, so it is only released once all of them are free.
func (lt *LockTable) Park(keys [][]byte, req []byte) uint64 {
	if len(lt.parked) >= parkedCap {
		return 0
	}
	lt.nextTicket++
	p := parkedReq{
		ticket: lt.nextTicket,
		keys:   make([]string, 0, len(keys)),
		req:    append([]byte(nil), req...),
	}
	for _, k := range keys {
		ks := string(k)
		p.keys = append(p.keys, ks)
		lt.waiting[ks]++
	}
	lt.parked = append(lt.parked, p)
	lt.parkedTicket = p.ticket
	return p.ticket
}

// drain executes every parked request whose keys are all free, in ticket
// (arrival) order, buffering a copy of each result for TakeReleased. Parked
// requests hold no locks themselves, so executing one can never re-park
// it or block another.
func (lt *LockTable) drain() {
	kept := lt.parked[:0]
	for _, p := range lt.parked {
		blocked := false
		for _, k := range p.keys {
			if _, held := lt.locks[k]; held {
				blocked = true
				break
			}
		}
		if blocked {
			kept = append(kept, p)
			continue
		}
		for _, k := range p.keys {
			if lt.waiting[k]--; lt.waiting[k] <= 0 {
				delete(lt.waiting, k)
			}
		}
		lt.released = append(lt.released, Release{Ticket: p.ticket, Result: bytes.Clone(lt.exec(p.req)), Req: p.req})
	}
	lt.parked = kept
}

// TakeParkedTicket implements Deferring.
func (lt *LockTable) TakeParkedTicket() uint64 {
	t := lt.parkedTicket
	lt.parkedTicket = 0
	return t
}

// TakeReleased implements Deferring.
func (lt *LockTable) TakeReleased() []Release {
	r := lt.released
	lt.released = nil
	return r
}

// Parked implements Deferring. A linear scan is fine: the queue is capped
// at parkedCap and the caller runs once per stable checkpoint.
func (lt *LockTable) Parked(ticket uint64) bool {
	for _, p := range lt.parked {
		if p.ticket == ticket {
			return true
		}
	}
	return false
}

// ParkOrRefuse queues a lock-blocked request (nil response = the request
// is deferred and answers at lock release), falling back to StatusLocked,
// appended to dst, when the wait queue is full — the shared overflow
// convention of every embedding application.
func (lt *LockTable) ParkOrRefuse(dst []byte, keys [][]byte, req []byte) []byte {
	if lt.Park(keys, req) != 0 {
		return nil
	}
	return append(dst, StatusLocked)
}

// LockedKeys reports how many keys are currently transaction-locked
// (test/diagnostic surface).
func (lt *LockTable) LockedKeys() int { return len(lt.locks) }

// StagedTxs reports how many transactions are prepared but undecided.
func (lt *LockTable) StagedTxs() int { return len(lt.staged) }

// ParkedCount reports how many requests wait in the FIFO queue.
func (lt *LockTable) ParkedCount() int { return len(lt.parked) }

// Decision looks up the decision/tombstone log.
func (lt *LockTable) Decision(txid uint64) (commit, ok bool) {
	commit, ok = lt.decisions[txid]
	return commit, ok
}

// SnapshotTo serializes the lock table deterministically: staged
// transactions ascending by txid, the decision log in FIFO order (the
// eviction order is part of the state), the wait queue in ticket order,
// and the ticket counter. The lock table itself is rebuilt on restore.
func (lt *LockTable) SnapshotTo(w *wire.Writer) {
	txids := make([]uint64, 0, len(lt.staged))
	for id := range lt.staged {
		txids = append(txids, id)
	}
	sort.Slice(txids, func(i, j int) bool { return txids[i] < txids[j] })
	w.Uvarint(uint64(len(txids)))
	for _, id := range txids {
		tx := lt.staged[id]
		w.U64(id)
		w.Uvarint(tx.coord)
		w.Uvarint(uint64(len(tx.keys)))
		for _, k := range tx.keys {
			w.String(k)
		}
		w.Bytes(tx.frag)
	}

	w.Uvarint(uint64(len(lt.decisionOrder.ids)))
	for id := range lt.decisionOrder.All() {
		w.U64(id)
		w.Bool(lt.decisions[id])
	}

	w.Uvarint(uint64(len(lt.parked)))
	for _, p := range lt.parked {
		w.U64(p.ticket)
		w.Uvarint(uint64(len(p.keys)))
		for _, k := range p.keys {
			w.String(k)
		}
		w.Bytes(p.req)
	}
	w.U64(lt.nextTicket)

	// The commit-receipt cache in FIFO order (eviction order is state).
	w.Uvarint(uint64(len(lt.receiptOrder.ids)))
	for id := range lt.receiptOrder.All() {
		w.U64(id)
		w.Bytes(lt.receipts[id])
	}
}

// RestoreFrom replaces the lock table from a snapshot (callbacks are
// kept; pending release buffers are cleared — a restored replica never
// owes responses for requests it did not execute).
func (lt *LockTable) RestoreFrom(rd *wire.Reader) {
	nt := int(rd.Uvarint())
	lt.locks = make(map[string]uint64)
	lt.staged = make(map[uint64]*stagedTxn, nt)
	for i := 0; i < nt; i++ {
		id := rd.U64()
		coord := rd.Uvarint()
		nk := int(rd.Uvarint())
		for j := 0; j < nk; j++ {
			rd.BytesView() // the keys are the fragment's, as Prepare read them
		}
		tx := &stagedTxn{keys: make([]string, 0, nk), frag: rd.Bytes(), coord: coord}
		lt.lock(id, tx)
		lt.staged[id] = tx
	}

	nd := int(rd.Uvarint())
	lt.decisions = make(map[uint64]bool, nd)
	lt.decisionOrder.restore(nd)
	for i := 0; i < nd; i++ {
		id := rd.U64()
		lt.decisions[id] = rd.Bool()
		lt.decisionOrder.push(id)
	}

	np := int(rd.Uvarint())
	lt.parked = make([]parkedReq, 0, np)
	lt.waiting = make(map[string]int)
	for i := 0; i < np; i++ {
		p := parkedReq{ticket: rd.U64()}
		nk := int(rd.Uvarint())
		p.keys = make([]string, 0, nk)
		for j := 0; j < nk; j++ {
			k := rd.String()
			p.keys = append(p.keys, k)
			lt.waiting[k]++
		}
		p.req = rd.Bytes()
		lt.parked = append(lt.parked, p)
	}
	lt.nextTicket = rd.U64()
	lt.parkedTicket = 0
	lt.released = nil

	nr := int(rd.Uvarint())
	lt.receipts = make(map[uint64][]byte, nr)
	lt.receiptOrder.restore(nr)
	for i := 0; i < nr; i++ {
		id := rd.U64()
		lt.receipts[id] = rd.Bytes()
		lt.receiptOrder.push(id)
	}
}
