package bench

import (
	"math/rand"

	"repro/internal/app"
)

// Workload produces a deterministic request stream for one application.
type Workload interface {
	// Next returns the next request payload.
	Next() []byte
}

// FlipWorkload produces fixed-size Flip requests (§7.1: 32 B).
type FlipWorkload struct {
	size int
	rng  *rand.Rand
}

// NewFlipWorkload builds the workload with the given request size.
func NewFlipWorkload(size int, rng *rand.Rand) *FlipWorkload {
	return &FlipWorkload{size: size, rng: rng}
}

// Next returns a fresh random payload of the configured size.
func (w *FlipWorkload) Next() []byte {
	out := make([]byte, w.size)
	w.rng.Read(out)
	return out
}

// ShardedKVWorkload produces the paper's key-value mixture (§7.1): 16 B
// keys, 32 B values, 30% GETs of which 80% hit a previously written key,
// 70% SETs. Every key is rejection-sampled to hash onto one target shard,
// so each request routes through the hash-of-key path; Fig 7 uses the
// one-shard case, where the first draw always lands.
type ShardedKVWorkload struct {
	rng *rand.Rand
	// get and set encode for the store under test (Memcached- or Redis-like).
	get           func(key []byte) []byte
	set           func(key, value []byte) []byte
	shard, shards int
	written       [][]byte
}

const kvKeyLen, kvValLen = 16, 32

// NewKVWorkload builds the mixture for the Memcached-like store.
func NewKVWorkload(rng *rand.Rand) *ShardedKVWorkload {
	return &ShardedKVWorkload{rng: rng, get: app.EncodeKVGet, set: app.EncodeKVSet, shards: 1}
}

// NewRKVWorkload builds the same mixture encoded for the Redis-like store.
func NewRKVWorkload(rng *rand.Rand) *ShardedKVWorkload {
	return &ShardedKVWorkload{rng: rng, get: app.EncodeRGet, set: app.EncodeRSet, shards: 1}
}

// randKey rejection-samples a random key hashing onto the target shard
// (geometric with mean `shards` draws, so cheap for any sane shard count).
func (w *ShardedKVWorkload) randKey() []byte {
	for {
		k := make([]byte, kvKeyLen)
		w.rng.Read(k)
		if app.ShardOfKey(k, w.shards) == w.shard {
			return k
		}
	}
}

// Next returns the next GET or SET, always routable to the target shard.
func (w *ShardedKVWorkload) Next() []byte {
	if w.rng.Float64() < 0.30 && len(w.written) > 0 {
		if w.rng.Float64() < 0.80 {
			return w.get(w.written[w.rng.Intn(len(w.written))])
		}
		return w.get(w.randKey())
	}
	key := w.randKey()
	val := make([]byte, kvValLen)
	w.rng.Read(val)
	if len(w.written) < 4096 {
		w.written = append(w.written, key)
	}
	return w.set(key, val)
}

// OrderWorkload reproduces the Liquibook workload (§7.1): 32 B orders,
// 50% BUY / 50% SELL around a drifting mid price.
type OrderWorkload struct {
	rng *rand.Rand
	mid uint64
}

// NewOrderWorkload builds the order stream.
func NewOrderWorkload(rng *rand.Rand) *OrderWorkload {
	return &OrderWorkload{rng: rng, mid: 10_000}
}

// Next returns the next order.
func (w *OrderWorkload) Next() []byte {
	side := app.OpBuy
	if w.rng.Intn(2) == 1 {
		side = app.OpSell
	}
	// Limit prices hover around the mid so roughly half the orders cross.
	offset := uint64(w.rng.Intn(8))
	price := w.mid
	if side == app.OpBuy {
		price += offset
	} else {
		price -= offset
	}
	if w.rng.Intn(64) == 0 {
		w.mid += uint64(w.rng.Intn(3)) - 1
	}
	qty := uint64(1 + w.rng.Intn(10))
	return app.EncodeOrder(side, price, qty)
}
