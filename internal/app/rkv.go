package app

import (
	"strconv"

	"repro/internal/sim"
	"repro/internal/wire"
)

// RKV is a Redis-like store (§7.1): on top of GET/SET/DEL it supports
// INCR, APPEND, EXISTS and MGET, mirroring the richer command surface (and
// slightly higher per-request cost) of Redis compared to Memcached. It
// implements every shard-layer capability: Router (key extraction),
// Fragmenter (MGET scatter-gather and RMSet splitting) and TxnParticipant
// (cross-shard 2PC through the embedded LockTable, which carries locks,
// staged fragments, tombstones and the wait queue through
// Snapshot/Restore). Keyed state lives in a VersionedStore, so pinned
// snapshot reads and strong reads can answer as of any state version
// above the GC horizon.
type RKV struct {
	vs *VersionedStore
	*LockTable
}

// RKV opcodes.
const (
	RGet    uint8 = 1
	RSet    uint8 = 2
	RDel    uint8 = 3
	RIncr   uint8 = 4
	RAppend uint8 = 5
	RExists uint8 = 6
	RMGet   uint8 = 7
	// RMSet writes several key/value pairs atomically. On one shard it is
	// a plain multi-key SET; across shards the shard layer runs it as a
	// 2PC transaction through the generic OpTxn* envelope (txn.go), with
	// RMSet fragments staged in each participant's LockTable.
	RMSet uint8 = 8
)

// RKV status codes. The transaction-related statuses are the generic
// shard-layer ones (same byte values as before the capability redesign).
const (
	ROK           = StatusOK
	RMiss   uint8 = 1
	RBadReq       = StatusBadReq
	RErr    uint8 = 3
	// RLocked refuses a request touching a key held by an in-flight
	// cross-shard transaction when the wait queue is full; normally such
	// requests park and resume when the transaction resolves.
	RLocked = StatusLocked
	// RConflict is a prepare vote of "no".
	RConflict = StatusConflict
	// RAborted reports an aborted cross-shard transaction.
	RAborted = StatusAborted
)

// rkvMGetMax bounds MGET (and multi-key write) fan-in, shared by Apply and
// the key extractor so routing never admits a request the state machine
// will refuse.
const rkvMGetMax = 1024

// NewRKV creates an empty store.
func NewRKV() *RKV {
	r := &RKV{vs: NewVersionedStore()}
	r.LockTable = NewLockTable(r.writeFragmentKeys, r.installFragment, r.Apply)
	return r
}

// EncodeRGet builds a GET request.
func EncodeRGet(key []byte) []byte { return encodeKeyOp(RGet, key) }

// EncodeRDel builds a DEL request.
func EncodeRDel(key []byte) []byte { return encodeKeyOp(RDel, key) }

// EncodeRIncr builds an INCR request.
func EncodeRIncr(key []byte) []byte { return encodeKeyOp(RIncr, key) }

// EncodeRExists builds an EXISTS request.
func EncodeRExists(key []byte) []byte { return encodeKeyOp(RExists, key) }

func encodeKeyOp(op uint8, key []byte) []byte {
	w := wire.NewWriter(8 + len(key))
	w.U8(op)
	w.Bytes(key)
	return w.Finish()
}

// EncodeRSet builds a SET request.
func EncodeRSet(key, value []byte) []byte {
	w := wire.NewWriter(16 + len(key) + len(value))
	w.U8(RSet)
	w.Bytes(key)
	w.Bytes(value)
	return w.Finish()
}

// EncodeRAppend builds an APPEND request.
func EncodeRAppend(key, value []byte) []byte {
	w := wire.NewWriter(16 + len(key) + len(value))
	w.U8(RAppend)
	w.Bytes(key)
	w.Bytes(value)
	return w.Finish()
}

// EncodeRMGet builds an MGET request over several keys.
func EncodeRMGet(keys ...[]byte) []byte {
	w := wire.NewWriter(64)
	w.U8(RMGet)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Bytes(k)
	}
	return w.Finish()
}

// EncodeRMSet builds an atomic multi-key SET (MPUT) request.
func EncodeRMSet(pairs ...Pair) []byte {
	w := wire.NewWriter(64)
	w.U8(RMSet)
	encodePairs(w, pairs)
	return w.Finish()
}

func encodePairs(w *wire.Writer, pairs []Pair) {
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.Bytes(p.Key)
		w.Bytes(p.Val)
	}
}

// decodePairs reads a pair list; ok is false when the declared count
// exceeds the fan-in bound (decode errors surface via the reader).
func decodePairs(rd *wire.Reader, max int) (pairs []Pair, ok bool) {
	n, ok := readCount(rd, max)
	if !ok {
		return nil, false
	}
	pairs = make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair{Key: rd.Bytes(), Val: rd.Bytes()})
	}
	return pairs, true
}

// Apply executes one command.
func (r *RKV) Apply(req []byte) []byte {
	if res, handled := ApplyTxn(r, req); handled {
		return res
	}
	rd := wire.NewReader(req)
	op := rd.U8()
	switch op {
	case RGet:
		// The read branches delegate to the unordered read executor: the
		// ordered and fast paths must answer byte-identically at the same
		// state, so there is exactly one implementation.
		res, _ := r.ApplyRead(req)
		return res
	case RSet:
		key, val := rd.Bytes(), rd.Bytes()
		if rd.Done() != nil {
			return []byte{RBadReq}
		}
		if r.Locked(key) {
			return r.ParkOrRefuse([][]byte{key}, req)
		}
		r.vs.Set(string(key), val)
		return []byte{ROK}
	case RDel:
		key := rd.Bytes()
		if rd.Done() != nil {
			return []byte{RBadReq}
		}
		if r.Locked(key) {
			return r.ParkOrRefuse([][]byte{key}, req)
		}
		if !r.vs.Has(string(key)) {
			return []byte{RMiss}
		}
		r.vs.Delete(string(key))
		return []byte{ROK}
	case RIncr:
		key := rd.Bytes()
		if rd.Done() != nil {
			return []byte{RBadReq}
		}
		if r.Locked(key) {
			return r.ParkOrRefuse([][]byte{key}, req)
		}
		cur := int64(0)
		if v, ok := r.vs.Get(string(key)); ok {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return []byte{RErr}
			}
			cur = n
		}
		cur++
		r.vs.Set(string(key), []byte(strconv.FormatInt(cur, 10)))
		w := wire.NewWriter(16)
		w.U8(ROK)
		w.I64(cur)
		return w.Finish()
	case RAppend:
		key, val := rd.Bytes(), rd.Bytes()
		if rd.Done() != nil {
			return []byte{RBadReq}
		}
		k := string(key)
		if r.Locked(key) {
			return r.ParkOrRefuse([][]byte{key}, req)
		}
		old, _ := r.vs.Get(k)
		grown := make([]byte, 0, len(old)+len(val))
		grown = append(append(grown, old...), val...)
		r.vs.Set(k, grown)
		w := wire.NewWriter(16)
		w.U8(ROK)
		w.Uvarint(uint64(len(grown)))
		return w.Finish()
	case RExists:
		res, _ := r.ApplyRead(req)
		return res
	case RMGet:
		// Same delegation; where the unordered executor answers a bare
		// StatusLocked, the ordered MGET parks until the transaction
		// resolves, so a reader cannot observe a multi-key write
		// mid-commit (commit releases each group's locks in the same
		// command that installs its writes). On the ordered path a leg
		// delayed past the *entire* transaction on one shard while
		// another leg ran before it can still see a pre/post mix; the
		// fast-read path's snapshot-slot negotiation closes that.
		// Single-key RGet stays read-committed.
		res, _ := r.ApplyRead(req)
		if len(res) == 1 && res[0] == StatusLocked {
			keys, err := RKVRequestKeys(req)
			if err != nil {
				return []byte{RBadReq}
			}
			return r.ParkOrRefuse(keys, req)
		}
		return res
	case RMSet:
		pairs, ok := decodePairs(rd, rkvMGetMax)
		if !ok || rd.Done() != nil {
			return []byte{RBadReq}
		}
		// Atomic: the whole write parks if any key is transaction-locked.
		keys := make([][]byte, 0, len(pairs))
		for _, p := range pairs {
			keys = append(keys, p.Key)
		}
		if r.AnyLocked(keys...) {
			return r.ParkOrRefuse(keys, req)
		}
		for _, p := range pairs {
			r.vs.Set(string(p.Key), p.Val)
		}
		return []byte{ROK}
	default:
		return []byte{RBadReq}
	}
}

// ApplyRead implements ReadExecutor: GET, EXISTS and MGET execute against
// current state with no side effects, byte-identical to the ordered Apply
// at the same state. An MGET over a transaction-locked key answers a bare
// StatusLocked instead of parking (the unordered path cannot park; the
// caller falls back to the ordered path, which does). Single-key GETs stay
// read-committed like the ordered path.
func (r *RKV) ApplyRead(req []byte) ([]byte, bool) {
	if len(req) == 0 {
		return nil, false
	}
	rd := wire.NewReader(req)
	switch rd.U8() {
	case RGet:
		key := rd.BytesView()
		if rd.Done() != nil {
			return []byte{RBadReq}, true
		}
		v, ok := r.vs.Get(string(key))
		if !ok {
			return []byte{RMiss}, true
		}
		w := wire.NewWriter(4 + len(v))
		w.U8(ROK)
		w.Bytes(v)
		return w.Finish(), true
	case RExists:
		key := rd.BytesView()
		if rd.Done() != nil {
			return []byte{RBadReq}, true
		}
		ok := r.vs.Has(string(key))
		w := wire.NewWriter(4)
		w.U8(ROK)
		w.Bool(ok)
		return w.Finish(), true
	case RMGet:
		n, ok := readCount(rd, rkvMGetMax)
		if !ok {
			return []byte{RBadReq}, true
		}
		keys := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			keys = append(keys, rd.BytesView())
		}
		if rd.Done() != nil {
			return []byte{RBadReq}, true
		}
		if r.AnyLocked(keys...) {
			return []byte{StatusLocked}, true
		}
		return encodeKeyedReads(len(keys), func(i int) (bool, []byte) {
			v, ok := r.vs.Get(string(keys[i]))
			return ok, v
		}), true
	default:
		return nil, false
	}
}

// Keys implements Router: every key a request touches, letting the shard
// layer hash-route single-key requests and detect multi-shard fan-out.
func (r *RKV) Keys(req []byte) ([][]byte, error) { return RKVRequestKeys(req) }

// ReadOnly implements Fragmenter: MGETs scatter-gather, RMSets run 2PC.
// Single-key GET/EXISTS are read-only too — they never span shards, but
// classifying them here routes point reads onto the fast path.
func (r *RKV) ReadOnly(req []byte) bool {
	if len(req) == 0 {
		return false
	}
	return req[0] == RMGet || req[0] == RGet || req[0] == RExists
}

// Fragment implements Fragmenter: re-encode the request restricted to the
// keys at the given indices.
func (r *RKV) Fragment(req []byte, keyIdx []int) ([]byte, error) {
	rd := wire.NewReader(req)
	switch op := rd.U8(); op {
	case RMGet:
		sub, err := subsetKeys(rd, rkvMGetMax, keyIdx)
		if err != nil {
			return nil, err
		}
		return EncodeRMGet(sub...), nil
	case RMSet:
		sub, err := subsetPairs(rd, rkvMGetMax, keyIdx)
		if err != nil {
			return nil, err
		}
		return EncodeRMSet(sub...), nil
	default:
		return nil, ErrNoKey
	}
}

// Merge implements Fragmenter for scatter-gathered MGETs.
func (r *RKV) Merge(req []byte, legs [][]byte, legKeys [][]int) []byte {
	return mergeKeyedReads(legs, legKeys)
}

// writeFragmentKeys validates a staged fragment (it must be an RMSet) and
// extracts the keys the LockTable locks for it.
func (r *RKV) writeFragmentKeys(frag []byte) ([][]byte, error) {
	if len(frag) == 0 || frag[0] != RMSet {
		return nil, ErrNoKey
	}
	return RKVRequestKeys(frag)
}

// installFragment applies a committed RMSet fragment (locks were released
// by the LockTable in the same command, so the install is unconditional;
// no commit receipt — a multi-key SET has no per-leg result).
func (r *RKV) installFragment(frag []byte) []byte {
	rd := wire.NewReader(frag)
	rd.U8()
	pairs, ok := decodePairs(rd, rkvMGetMax)
	if !ok || rd.Done() != nil {
		return nil
	}
	for _, p := range pairs {
		r.vs.SetTxn(string(p.Key), p.Val)
	}
	return nil
}

// Len returns the number of keys.
func (r *RKV) Len() int { return r.vs.Len() }

// Versioned capability: the replica stamps every ordered command's writes
// and ratchets the GC horizon at stable-checkpoint creation.
func (r *RKV) BeginSlot(v uint64)     { r.vs.BeginSlot(v) }
func (r *RKV) PruneVersions(h uint64) { r.vs.Ratchet(h) }
func (r *RKV) VersionHorizon() uint64 { return r.vs.Horizon() }
func (r *RKV) VersionCount() int      { return r.vs.VersionCount() }

// ApplyReadAt implements VersionedReadExecutor: GET, EXISTS and MGET
// answered as of state version at. Unlike ApplyRead it proceeds under
// transaction locks (a pinned version is well-defined regardless) and
// instead reports txnCrossed when the read may straddle a transaction.
func (r *RKV) ApplyReadAt(req []byte, at uint64) ([]byte, bool, bool) {
	if len(req) == 0 || at < r.vs.Horizon() {
		return nil, false, false
	}
	rd := wire.NewReader(req)
	switch rd.U8() {
	case RGet:
		key := rd.BytesView()
		if rd.Done() != nil {
			return []byte{RBadReq}, false, true
		}
		crossed := r.keyCrossed(key, at)
		v, ok := r.vs.GetAt(string(key), at)
		if !ok {
			return []byte{RMiss}, crossed, true
		}
		w := wire.NewWriter(4 + len(v))
		w.U8(ROK)
		w.Bytes(v)
		return w.Finish(), crossed, true
	case RExists:
		key := rd.BytesView()
		if rd.Done() != nil {
			return []byte{RBadReq}, false, true
		}
		crossed := r.keyCrossed(key, at)
		_, ok := r.vs.GetAt(string(key), at)
		w := wire.NewWriter(4)
		w.U8(ROK)
		w.Bool(ok)
		return w.Finish(), crossed, true
	case RMGet:
		n, ok := readCount(rd, rkvMGetMax)
		if !ok {
			return []byte{RBadReq}, false, true
		}
		keys := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			keys = append(keys, rd.BytesView())
		}
		if rd.Done() != nil {
			return []byte{RBadReq}, false, true
		}
		crossed := false
		for _, k := range keys {
			if r.keyCrossed(k, at) {
				crossed = true
				break
			}
		}
		return encodeKeyedReads(len(keys), func(i int) (bool, []byte) {
			v, ok := r.vs.GetAt(string(keys[i]), at)
			return ok, v
		}), crossed, true
	default:
		return nil, false, false
	}
}

// keyCrossed is the per-key consistent-cut rule: the key is currently
// transaction-locked, or a transaction installed a version after the pin.
func (r *RKV) keyCrossed(key []byte, at uint64) bool {
	return r.Locked(key) || r.vs.TxnTouched(string(key), at)
}

// Snapshot serializes the store deterministically (version chains with the
// GC horizon, sorted keys), including the embedded LockTable (a replica
// restored via state transfer must agree on in-flight transactions and
// parked requests, not just committed data).
func (r *RKV) Snapshot() []byte {
	w := wire.NewWriter(64 * (r.vs.Len() + 1))
	r.vs.SnapshotTo(w)
	r.SnapshotTo(w)
	return w.Finish()
}

// Restore replaces the store from a snapshot.
func (r *RKV) Restore(snap []byte) {
	rd := wire.NewReader(snap)
	r.vs.RestoreFrom(rd)
	r.RestoreFrom(rd)
}

// ExecCost models the Redis server path (single-threaded event loop,
// command dispatch). Calibrated against Figure 7: Redis unreplicated p90
// is 17.62 us, slightly above Memcached.
func (r *RKV) ExecCost(req []byte) sim.Duration {
	return 14800*sim.Nanosecond + sim.Duration(len(req)/16)*sim.Nanosecond
}
