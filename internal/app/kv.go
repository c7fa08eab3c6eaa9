package app

import "repro/internal/sim"

// KV is a Memcached-like in-memory key-value store (§7.1): GET/SET/DELETE
// over byte keys and values, with an eviction bound, plus the multi-key
// MSET/MGET surface. The paper's workload uses 16 B keys and 32 B values,
// 30% GETs of which 80% hit. It is the keyed-store engine (keyed.go)
// speaking the Memcached dialect below, with a FIFO eviction list that
// travels in the snapshot; every shard-layer capability (Router,
// Fragmenter, TxnParticipant, pinned and strong reads) comes from the
// engine.
type KV struct{ *keyed }

// KV request opcodes.
const (
	KVGet    uint8 = 1
	KVSet    uint8 = 2
	KVDelete uint8 = 3
	// KVMSet writes several key/value pairs atomically (2PC across
	// shards, via the generic OpTxn* envelope).
	KVMSet uint8 = 4
	// KVMGet reads several keys (scatter-gather across shards).
	KVMGet uint8 = 5
)

// KV response status codes. KVOK and KVBadReq coincide with the generic
// StatusOK/StatusBadReq bytes; multi-key responses use the generic
// statuses directly. KVDeleted/KVNotFound live above the generic range —
// a lock-refused delete (StatusLocked, 4) must never read as a
// successful one.
const (
	KVOK       uint8 = 0
	KVMiss     uint8 = 1
	KVBadReq   uint8 = 2
	KVStored   uint8 = 3
	KVDeleted  uint8 = 7
	KVNotFound uint8 = 8
)

// kvDialect is the Memcached wire vocabulary. The exec cost models the
// full Memcached server path (protocol parsing, hash table, response
// building), calibrated so an unreplicated request lands around the paper's
// ~17 us (Figure 7: Memcached at 17.04 us p90 vs Flip at 2.42 us — the
// difference is the server, not the network).
var kvDialect = dialect{
	name:     "KV",
	ops:      [256]keyedOp{KVGet: opGet, KVSet: opSet, KVDelete: opDel, KVMSet: opMSet, KVMGet: opMGet},
	stored:   KVStored,
	deleted:  KVDeleted,
	notFound: KVNotFound,
	execBase: 14200 * sim.Nanosecond,
	mget:     KVMGet,
	mset:     KVMSet,
}

// NewKV creates a store bounded to maxItems entries (0 = unbounded).
func NewKV(maxItems int) *KV { return &KV{newKeyed(&kvDialect, &fifo{max: maxItems})} }

// EncodeKVGet builds a GET request.
func EncodeKVGet(key []byte) []byte { return encodeKeyOp(KVGet, key) }

// EncodeKVSet builds a SET request.
func EncodeKVSet(key, value []byte) []byte { return encodeKeyValOp(KVSet, key, value) }

// EncodeKVDelete builds a DELETE request.
func EncodeKVDelete(key []byte) []byte { return encodeKeyOp(KVDelete, key) }

// EncodeKVMSet builds an atomic multi-key SET request.
func EncodeKVMSet(pairs ...Pair) []byte { return encodePairsOp(nil, KVMSet, pairs) }

// EncodeKVMGet builds a multi-key GET request.
func EncodeKVMGet(keys ...[]byte) []byte { return encodeKeysOp(nil, KVMGet, keys) }
