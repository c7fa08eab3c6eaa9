package app

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/sim"
	"repro/internal/wire"
)

// This file is the keyed-store engine: the one MVCC key-value state machine
// behind both KV (Memcached-style) and RKV (Redis-style). The engine owns
// the VersionedStore, the embedded LockTable, command execution, the read
// path, the routing and fragment capabilities and the snapshot framing; a
// store is the engine plus a dialect — the wire vocabulary that tells the
// two apart. The engine never asks which store it is: an operation a
// dialect lacks is a row its opcode table does not have, eviction is a
// component that is present or nil, and everything else is data.

// keyedOp is one operation of the engine; a dialect maps opcodes onto them.
type keyedOp uint8

const (
	opNone keyedOp = iota // the opcode is not part of the dialect
	opGet
	opSet
	opDel
	opIncr
	opAppend
	opExists
	opMGet
	opMSet
)

// readOnly reports whether the operation executes off the ordered path.
func (op keyedOp) readOnly() bool { return op == opGet || op == opExists || op == opMGet }

// dialect is everything that distinguishes one keyed store's wire protocol
// from another's: which opcode means which operation, the status bytes the
// two historical vocabularies disagree on, the modelled server cost, and
// the opcodes of the two multi-key requests Fragment re-encodes. Hits,
// misses, bad requests and every multi-key answer use the generic bytes
// (StatusOK, keyedMiss, StatusBadReq) in both dialects.
type dialect struct {
	name string       // in routing errors
	ops  [256]keyedOp // opcode -> operation, opNone where the dialect has no such command
	// Acknowledgements of a SET, of a DELETE that found its key and of one
	// that did not.
	stored, deleted, notFound uint8
	execBase                  sim.Duration // ExecCost of an empty request

	mget, mset uint8
}

// keyedMiss answers a GET of an absent key (KVMiss and RMiss).
const keyedMiss uint8 = 1

// multiKeyMax bounds multi-key fan-in for every transactional application,
// shared by Apply and the key extractors so routing never admits a request
// the state machine will refuse.
const multiKeyMax = 1024

// headVersion pins a read to whatever is newest: no version is stamped
// above it, so a read "as of" it is a read of current state.
const headVersion = ^uint64(0)

// fifo is the insertion-ordered eviction list of a bounded store. The order
// is tracked (and snapshotted) even with no bound set.
type fifo struct {
	max   int // <= 0: unbounded
	order []string
}

// admit appends a key new to the store and returns the oldest key when the
// bound is now exceeded.
func (f *fifo) admit(k string) (victim string, evict bool) {
	f.order = append(f.order, k)
	if f.max <= 0 || len(f.order) <= f.max {
		return "", false
	}
	victim, f.order = f.order[0], f.order[1:]
	return victim, true
}

// forget drops a deleted key from the order.
func (f *fifo) forget(k []byte) {
	for i, o := range f.order {
		if o == string(k) {
			f.order = append(f.order[:i], f.order[i+1:]...)
			return
		}
	}
}

// keyed is the engine. KV and RKV embed it; every capability the shard and
// replica layers assert (Router, Fragmenter, TxnParticipant through the
// LockTable, Deferring, ReadExecutor, Versioned, VersionedReadExecutor) is
// promoted from here.
type keyed struct {
	d     *dialect
	vs    *VersionedStore
	evict *fifo // nil for a store that never evicts
	// answer is the buffer every Apply, ApplyRead and ApplyReadAt answer is
	// appended into, the caller's until the next call (StateMachine.Apply);
	// keys holds a multi-key read's or write's keys (multiRead, Apply,
	// Fragment, writeFragmentKeys) and pairs a multi-key write's pairs
	// (Apply, Fragment, installFragment) until the next one; reads is a
	// scatter read's scratch (Merge), empty between merges, and value holds
	// the value an INCR or APPEND builds, until the next one.
	answer []byte
	keys   [][]byte
	pairs  []Pair
	reads  []KeyedRead
	value  []byte
	*LockTable
}

func newKeyed(d *dialect, evict *fifo) *keyed {
	s := &keyed{d: d, vs: NewVersionedStore(), evict: evict}
	s.LockTable = NewLockTable(s.writeFragmentKeys, s.installFragment, s.Apply)
	return s
}

// Apply executes one command. Responses are status-prefixed; a nil response
// means the command parked behind a transaction lock (see Deferring).
func (s *keyed) Apply(req []byte) []byte {
	res := s.apply(s.answer[:0], req)
	if res != nil {
		s.answer = res
	}
	return res
}

// apply executes one command, appending its answer to dst.
func (s *keyed) apply(dst, req []byte) []byte {
	if res, handled := ApplyTxn(s, dst, req); handled {
		return res
	}
	rd := wire.NewReader(req)
	switch op := s.d.ops[rd.U8()]; op {
	case opGet, opExists, opMGet:
		// The ordered and the unordered path must answer byte-identically
		// at the same state, so there is one read routine. Where it reports
		// a multi-key read blocked by a transaction lock the ordered path
		// parks on the keys it decoded — a reader never observes a
		// cross-shard write mid-commit. (A leg delayed past the whole
		// transaction on one shard while a sibling leg ran before it can
		// still see a pre/post mix; the fast path's snapshot pins close
		// that.) Single-key reads stay read-committed.
		res, blocked, _ := s.read(dst, op, rd, headVersion, false)
		if len(blocked) > 0 {
			return s.ParkOrRefuse(dst, blocked, req)
		}
		return res
	case opSet, opDel, opIncr, opAppend:
		key := rd.BytesView()
		var val []byte
		if op == opSet || op == opAppend {
			val = rd.BytesView() // the store copies what it keeps
		}
		if rd.Done() != nil {
			return append(dst, StatusBadReq)
		}
		if s.Locked(key) {
			return s.ParkOrRefuse(dst, [][]byte{key}, req)
		}
		return s.write(dst, op, key, val)
	case opMSet:
		pairs, ok := decodePairs(s.pairs[:0], rd)
		s.pairs = pairs
		if !ok || rd.Done() != nil {
			return append(dst, StatusBadReq)
		}
		// Atomic: the whole write parks if any key is transaction-locked.
		keys := s.keys[:0]
		for _, p := range pairs {
			keys = append(keys, p.Key)
		}
		s.keys = keys
		if s.AnyLocked(keys...) {
			return s.ParkOrRefuse(dst, keys, req)
		}
		for _, p := range pairs {
			s.set(p.Key, p.Val, false)
		}
		// Multi-key ops speak the generic status vocabulary, so the ack is
		// identical whether the write ran on one shard or as a cross-shard
		// 2PC transaction (which answers StatusOK from the coordinator).
		return append(dst, StatusOK)
	default:
		return append(dst, StatusBadReq)
	}
}

// write executes one unlocked single-key write, appending its answer to dst.
func (s *keyed) write(dst []byte, op keyedOp, k, val []byte) []byte {
	switch op {
	case opSet:
		s.set(k, val, false)
		return append(dst, s.d.stored)
	case opDel:
		if !s.vs.Has(k) {
			return append(dst, s.d.notFound)
		}
		s.vs.Delete(k)
		if s.evict != nil {
			s.evict.forget(k)
		}
		return append(dst, s.d.deleted)
	case opIncr:
		cur := int64(0)
		if v, ok := s.vs.Get(k); ok {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return append(dst, RErr) // INCR is a Redis-dialect row, and so is its error byte
			}
			cur = n
		}
		cur++
		s.value = strconv.AppendInt(s.value[:0], cur, 10)
		s.set(k, s.value, false)
		w := wire.WriterOn(dst)
		w.U8(StatusOK)
		w.I64(cur)
		return w.Finish()
	default: // opAppend
		old, _ := s.vs.Get(k)
		s.value = append(append(s.value[:0], old...), val...)
		s.set(k, s.value, false)
		w := wire.WriterOn(dst)
		w.U8(StatusOK)
		w.Uvarint(uint64(len(s.value)))
		return w.Finish()
	}
}

// set installs one key/value pair, then evicts the oldest key of a bounded
// store if k is new. txn marks the version as installed by a committed
// transaction fragment, which is what pinned snapshot reads chase.
func (s *keyed) set(k, val []byte, txn bool) {
	fresh := s.evict != nil && !s.vs.Has(k)
	s.vs.write(k, val, true, txn)
	if !fresh {
		return
	}
	// The order shares the store's string for a new key: it costs nothing.
	if victim, ok := s.evict.admit(s.vs.key(k)); ok {
		s.vs.Delete([]byte(victim))
	}
}

// read answers one read-only operation whose opcode rd has consumed, in one
// of two modes, appending the answer to dst. Unpinned (at = headVersion) it
// reads current state and reports a multi-key read over a transaction-locked
// key as blocked, with a bare StatusLocked as the answer. Pinned it reads as
// of state version at, proceeds under locks (a pinned version is
// well-defined regardless) and instead reports crossed when the read may
// straddle a transaction.
func (s *keyed) read(dst []byte, op keyedOp, rd *wire.Reader, at uint64, pinned bool) (res []byte, blocked [][]byte, crossed bool) {
	if op == opMGet {
		return multiRead(dst, &s.keys, rd, s.LockTable, s.vs, at, pinned, nil)
	}
	key := rd.BytesView()
	if rd.Done() != nil {
		return append(dst, StatusBadReq), nil, false
	}
	crossed = pinned && keyCrossed(s.LockTable, s.vs, key, at)
	v, ok := s.vs.GetAt(key, at)
	w := wire.WriterOn(dst)
	switch {
	case op == opExists:
		w.Grow(2)
		w.U8(StatusOK)
		w.Bool(ok)
	case !ok:
		w.U8(keyedMiss)
	default:
		w.Grow(1 + wire.BytesLen(len(v)))
		w.U8(StatusOK)
		w.Bytes(v)
	}
	return w.Finish(), nil, crossed
}

// multiRead is the multi-key read body of every transactional application
// (the stores' MGET, the order book's OpTops), in read's two modes: decode
// the keys, apply the mode's lock rule, and append to dst the shared
// response shape AppendKeyedReads decodes — status byte, uvarint count, then
// per key a Bool(found) plus an optional Bytes value. A non-nil absent is
// the value of a key the store has never seen (the order book's empty top of
// book). The keys are appended into *buf, the store's own slice, so blocked
// is valid until the store's next multi-key read (ParkOrRefuse copies it).
func multiRead(dst []byte, buf *[][]byte, rd *wire.Reader, lt *LockTable, vs *VersionedStore, at uint64, pinned bool, absent []byte) (res []byte, blocked [][]byte, crossed bool) {
	n, ok := readCount(rd, multiKeyMax)
	if !ok {
		return append(dst, StatusBadReq), nil, false
	}
	keys := (*buf)[:0]
	for i := 0; i < n; i++ {
		keys = append(keys, rd.BytesView())
	}
	*buf = keys
	if rd.Done() != nil {
		return append(dst, StatusBadReq), nil, false
	}
	if !pinned {
		if lt.AnyLocked(keys...) {
			return append(dst, StatusLocked), keys, false
		}
	} else {
		for _, k := range keys {
			if keyCrossed(lt, vs, k, at) {
				crossed = true
				break
			}
		}
	}
	w := wire.WriterOn(dst)
	w.Grow(64)
	w.U8(StatusOK)
	w.Uvarint(uint64(n))
	for _, k := range keys {
		v, ok := vs.GetAt(k, at)
		if !ok && absent != nil {
			v, ok = absent, true
		}
		w.Bool(ok)
		if ok {
			w.Bytes(v)
		}
	}
	return w.Finish(), nil, crossed
}

// keyCrossed is the per-key consistent-cut rule: the key is currently
// transaction-locked, or a transaction installed a version after the pin.
func keyCrossed(lt *LockTable, vs *VersionedStore, key []byte, at uint64) bool {
	return lt.Locked(key) || vs.TxnTouched(key, at)
}

// ApplyRead implements ReadExecutor: the dialect's reads execute against
// current state with no side effects, byte-identical to the ordered Apply
// at the same state — except that a multi-key read the ordered path would
// park answers a bare StatusLocked (the unordered path cannot park; the
// caller falls back to the ordered path, which does).
func (s *keyed) ApplyRead(req []byte) ([]byte, bool) {
	rd := wire.NewReader(req)
	op := s.d.ops[rd.U8()]
	if !op.readOnly() {
		return nil, false
	}
	res, _, _ := s.read(s.answer[:0], op, rd, headVersion, false)
	s.answer = res
	return res, true
}

// ApplyReadAt implements VersionedReadExecutor: the same reads answered as
// of state version at. With no lock held, ApplyReadAt at the current
// version and ApplyRead are the same computation.
func (s *keyed) ApplyReadAt(req []byte, at uint64) ([]byte, bool, bool) {
	rd := wire.NewReader(req)
	op := s.d.ops[rd.U8()]
	if !op.readOnly() || at < s.vs.Horizon() {
		return nil, false, false
	}
	res, _, crossed := s.read(s.answer[:0], op, rd, at, true)
	s.answer = res
	return res, crossed, true
}

// appendKeys appends every key a request touches to dst. It is a pure
// function of the request bytes: the shard layer calls it on a prototype
// that never executes. An empty multi-read is valid and key-less.
func (d *dialect) appendKeys(dst [][]byte, req []byte) ([][]byte, error) {
	rd := wire.NewReader(req)
	code := rd.U8()
	switch d.ops[code] {
	case opNone:
		// The generic OpTxn* envelope is addressed to explicit groups by
		// the 2PC coordinator and never enters the hash router, so it is
		// unroutable here by design.
		return nil, fmt.Errorf("%w: unknown %s opcode %d", ErrNoKey, d.name, code)
	case opMGet:
		return multiKeys(dst, rd, false)
	case opMSet:
		return multiKeys(dst, rd, true)
	}
	key := rd.BytesView()
	if rd.Err() != nil {
		return nil, ErrNoKey
	}
	return append(dst, key), nil
}

// AppendKeys implements Router: every key a request touches, letting the
// shard layer hash-route single-key requests and detect multi-shard fan-out.
func (s *keyed) AppendKeys(dst [][]byte, req []byte) ([][]byte, error) {
	return s.d.appendKeys(dst, req)
}

// ReadOnly implements Fragmenter: multi-key reads scatter-gather, multi-key
// writes run 2PC. Single-key reads are read-only too — they never span
// shards, but classifying them here routes point reads onto the fast path.
func (s *keyed) ReadOnly(req []byte) bool {
	return len(req) > 0 && s.d.ops[req[0]].readOnly()
}

// Fragment implements Fragmenter: re-encode a multi-key request restricted
// to the keys at the given indices, appended to dst.
func (s *keyed) Fragment(dst, req []byte, keyIdx []int) ([]byte, error) {
	rd := wire.NewReader(req)
	switch s.d.ops[rd.U8()] {
	case opMGet:
		sub, err := subsetKeys(&s.keys, rd, keyIdx)
		if err != nil {
			return dst, err
		}
		return encodeKeysOp(dst, s.d.mget, sub), nil
	case opMSet:
		sub, err := subsetPairs(&s.pairs, rd, keyIdx)
		if err != nil {
			return dst, err
		}
		return encodePairsOp(dst, s.d.mset, sub), nil
	default:
		return dst, ErrNoKey
	}
}

// Merge implements Fragmenter for scatter-gathered multi-key reads.
func (s *keyed) Merge(req []byte, legs [][]byte, legKeys [][]int) []byte {
	return mergeKeyedReads(&s.reads, legs, legKeys)
}

// writeFragmentKeys validates a staged fragment (it must be the dialect's
// multi-key SET) and extracts the keys the LockTable locks for it, into the
// store's key scratch.
func (s *keyed) writeFragmentKeys(frag []byte) ([][]byte, error) {
	if len(frag) == 0 || s.d.ops[frag[0]] != opMSet {
		return nil, ErrNoKey
	}
	keys, err := s.d.appendKeys(s.keys[:0], frag)
	if err == nil {
		s.keys = keys
	}
	return keys, err
}

// installFragment applies a committed fragment. Its locks were released by
// the LockTable in the same command, so the install is unconditional; there
// is no commit receipt — a multi-key SET has no per-leg result beyond the
// acknowledgement.
func (s *keyed) installFragment(frag []byte) []byte {
	rd := wire.NewReader(frag)
	rd.U8()
	pairs, ok := decodePairs(s.pairs[:0], rd)
	s.pairs = pairs
	if ok && rd.Done() == nil {
		for _, p := range pairs {
			s.set(p.Key, p.Val, true)
		}
	}
	return nil
}

// Len returns the number of keys holding a value.
func (s *keyed) Len() int { return s.vs.Len() }

// Versioned capability: the replica stamps every ordered command's writes
// and ratchets the GC horizon at stable-checkpoint creation.
func (s *keyed) BeginSlot(v uint64)     { s.vs.BeginSlot(v) }
func (s *keyed) PruneVersions(h uint64) { s.vs.Ratchet(h) }
func (s *keyed) VersionHorizon() uint64 { return s.vs.Horizon() }
func (s *keyed) VersionCount() int      { return s.vs.VersionCount() }

// Snapshot serializes the store deterministically: version chains with the
// GC horizon (sorted keys), the eviction order where the store has one, and
// the embedded LockTable — a replica restored via state transfer must agree
// on in-flight transactions and parked requests, not just committed data.
func (s *keyed) Snapshot() []byte {
	w := wire.NewWriter(64 * (s.vs.Len() + 1))
	s.vs.SnapshotTo(w)
	if s.evict != nil {
		w.Uvarint(uint64(len(s.evict.order)))
		for _, k := range s.evict.order {
			w.String(k)
		}
	}
	s.SnapshotTo(w)
	return w.Finish()
}

// Restore replaces the store from a snapshot. The eviction order shares
// the restored chains' key strings, as it shares written ones.
func (s *keyed) Restore(snap []byte) {
	rd := wire.NewReader(snap)
	s.vs.RestoreFrom(rd)
	if s.evict != nil {
		n := int(rd.Uvarint())
		s.evict.order = make([]string, 0, n)
		for i := 0; i < n; i++ {
			s.evict.order = append(s.evict.order, s.vs.key(rd.BytesView()))
		}
	}
	s.RestoreFrom(rd)
}

// ExecCost models the store's full server path (protocol parsing, lookup,
// response building): the dialect's calibrated base plus a per-byte term.
func (s *keyed) ExecCost(req []byte) sim.Duration {
	return s.d.execBase + sim.Duration(len(req)/16)*sim.Nanosecond
}

// The request shapes both dialects (and the order book's OpTops) share:
// opcode + key, opcode + key + value, opcode + key list, opcode + pair list.

func encodeKeyOp(op uint8, key []byte) []byte {
	w := wire.NewWriter(8 + len(key))
	w.U8(op)
	w.Bytes(key)
	return w.Finish()
}

func encodeKeyValOp(op uint8, key, value []byte) []byte {
	w := wire.NewWriter(16 + len(key) + len(value))
	w.U8(op)
	w.Bytes(key)
	w.Bytes(value)
	return w.Finish()
}

// encodeKeysOp appends a multi-key request (opcode, count, keys) to dst.
func encodeKeysOp(dst []byte, op uint8, keys [][]byte) []byte {
	size := 1 + wire.UvarintLen(uint64(len(keys)))
	for _, k := range keys {
		size += wire.BytesLen(len(k))
	}
	w := wire.WriterOn(dst)
	w.Grow(size)
	w.U8(op)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Bytes(k)
	}
	return w.Finish()
}

// encodePairsOp appends a multi-key write (opcode, count, key-value pairs)
// to dst.
func encodePairsOp(dst []byte, op uint8, pairs []Pair) []byte {
	size := 1 + wire.UvarintLen(uint64(len(pairs)))
	for _, p := range pairs {
		size += wire.BytesLen(len(p.Key)) + wire.BytesLen(len(p.Val))
	}
	w := wire.WriterOn(dst)
	w.Grow(size)
	w.U8(op)
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.Bytes(p.Key)
		w.Bytes(p.Val)
	}
	return w.Finish()
}

// decodePairs appends a pair list to dst, each key and value a view of the
// request: the store copies what it keeps. ok is false when the declared
// count exceeds the fan-in bound (decode errors surface via the reader).
func decodePairs(dst []Pair, rd *wire.Reader) (pairs []Pair, ok bool) {
	n, ok := readCount(rd, multiKeyMax)
	if !ok {
		return dst, false
	}
	pairs = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair{Key: rd.BytesView(), Val: rd.BytesView()})
	}
	return pairs, true
}
