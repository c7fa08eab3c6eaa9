package app

import (
	"errors"
	"math/rand"

	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file is the application side of the sharded deployment: the
// key-to-shard hash, the multi-key body decoder behind the keyed stores'
// Router capability, and a deterministic sharded KV workload whose keys all
// land on one target partition (the paper's Fig 7 key-value workload is its
// one-shard case; also used by the horizontal-scaling benchmark and the
// multi-shard determinism tests).

// ErrNoKey reports a request whose key cannot be extracted (malformed or an
// opcode the router does not know).
var ErrNoKey = errors.New("app: request has no routable key")

// ShardOfKey maps a key to one of `shards` partitions using the repo's
// xxhash (cheap, and independent of the SHA-256 protocol digests so routing
// cannot bias request fingerprints).
func ShardOfKey(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(xcrypto.ChecksumNoCharge(key) % uint64(shards))
}

// multiKeys reads the keys of a multi-key request body (the opcode is
// already consumed); withVals skips the interleaved values of a write.
// The request must be fully consumed: it backs the writeFragmentKeys
// validation of the keyed stores, and a fragment Prepare votes yes on MUST
// be installable — trailing bytes that install would refuse have to be
// refused here too, or a half-valid prepare could commit a transaction
// that installs nothing on one shard.
func multiKeys(rd *wire.Reader, withVals bool) ([][]byte, error) {
	n, ok := readCount(rd, multiKeyMax)
	if !ok {
		return nil, ErrNoKey
	}
	keys := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, rd.BytesView())
		if withVals {
			rd.BytesView() // value
		}
	}
	if rd.Done() != nil {
		return nil, ErrNoKey
	}
	return keys, nil
}

// ShardedKVWorkload produces the paper's Memcached request mixture (30%
// GETs, 80% of which hit previously written keys) with every key
// rejection-sampled to hash onto one target shard. One instance per shard
// lets a benchmark drive all partitions evenly while each request still
// routes through the hash-of-key path.
type ShardedKVWorkload struct {
	rng     *rand.Rand
	enc     *dialect // the store the requests are encoded for
	shard   int
	shards  int
	keyLen  int
	valLen  int
	written [][]byte
}

// NewShardedKVWorkload builds the workload targeting `shard` of `shards`.
func NewShardedKVWorkload(shard, shards int, rng *rand.Rand) *ShardedKVWorkload {
	return newShardedWorkload(&kvDialect, shard, shards, rng)
}

// NewShardedRKVWorkload is the same mixture encoded for the Redis-like
// store (RGet/RSet), the single-shard substrate of the cross-shard mix.
func NewShardedRKVWorkload(shard, shards int, rng *rand.Rand) *ShardedKVWorkload {
	return newShardedWorkload(&rkvDialect, shard, shards, rng)
}

func newShardedWorkload(enc *dialect, shard, shards int, rng *rand.Rand) *ShardedKVWorkload {
	return &ShardedKVWorkload{rng: rng, enc: enc, shard: shard, shards: shards, keyLen: 16, valLen: 32}
}

// Next returns the next GET or SET, always routable to the target shard.
func (w *ShardedKVWorkload) Next() []byte {
	if w.rng.Float64() < 0.30 && len(w.written) > 0 {
		var key []byte
		if w.rng.Float64() < 0.80 {
			key = w.written[w.rng.Intn(len(w.written))]
		} else {
			key = randKeyOn(w.rng, w.shard, w.shards, w.keyLen)
		}
		return w.enc.get(key)
	}
	key := randKeyOn(w.rng, w.shard, w.shards, w.keyLen)
	val := make([]byte, w.valLen)
	w.rng.Read(val)
	if len(w.written) < 4096 {
		w.written = append(w.written, key)
	}
	return w.enc.set(key, val)
}
