package app

import "repro/internal/sim"

// RKV is a Redis-like store (§7.1): on top of GET/SET/DEL it supports
// INCR, APPEND, EXISTS, MGET and an atomic multi-key SET, mirroring the
// richer command surface (and slightly higher per-request cost) of Redis
// compared to Memcached. It is the keyed-store engine (keyed.go) speaking
// the Redis dialect below, with no eviction; every shard-layer capability
// (Router, Fragmenter, TxnParticipant, pinned and strong reads) comes from
// the engine.
type RKV struct{ *keyed }

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
	// RErr refuses an INCR of a value that is not a decimal integer.
	RErr uint8 = 3
	// RAborted reports an aborted cross-shard transaction.
	RAborted = StatusAborted
)

// rkvDialect is the Redis wire vocabulary. The exec cost models the Redis
// server path (single-threaded event loop, command dispatch), calibrated
// against Figure 7: Redis unreplicated p90 is 17.62 us, slightly above
// Memcached.
var rkvDialect = dialect{
	name: "RKV",
	ops: [256]keyedOp{RGet: opGet, RSet: opSet, RDel: opDel, RIncr: opIncr, RAppend: opAppend,
		RExists: opExists, RMGet: opMGet, RMSet: opMSet},
	stored:   ROK,
	deleted:  ROK,
	notFound: RMiss,
	execBase: 14800 * sim.Nanosecond,
	mget:     RMGet,
	mset:     RMSet,
}

// NewRKV creates an empty store.
func NewRKV() *RKV { return &RKV{newKeyed(&rkvDialect, nil)} }

// EncodeRGet builds a GET request.
func EncodeRGet(key []byte) []byte { return encodeKeyOp(RGet, key) }

// EncodeRDel builds a DEL request.
func EncodeRDel(key []byte) []byte { return encodeKeyOp(RDel, key) }

// EncodeRIncr builds an INCR request.
func EncodeRIncr(key []byte) []byte { return encodeKeyOp(RIncr, key) }

// EncodeRExists builds an EXISTS request.
func EncodeRExists(key []byte) []byte { return encodeKeyOp(RExists, key) }

// EncodeRSet builds a SET request.
func EncodeRSet(key, value []byte) []byte { return encodeKeyValOp(RSet, key, value) }

// EncodeRAppend builds an APPEND request.
func EncodeRAppend(key, value []byte) []byte { return encodeKeyValOp(RAppend, key, value) }

// EncodeRMGet builds an MGET request over several keys.
func EncodeRMGet(keys ...[]byte) []byte { return encodeKeysOp(nil, RMGet, keys) }

// EncodeRMSet builds an atomic multi-key SET (MPUT) request.
func EncodeRMSet(pairs ...Pair) []byte { return encodePairsOp(nil, RMSet, pairs) }
