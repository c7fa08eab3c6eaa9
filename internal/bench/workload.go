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

// NewKVWorkload builds the paper's key-value workload (§7.1) for the
// Memcached-like store: 16 B keys, 32 B values, 30% GETs of which 80% hit
// (so 70% SETs, and GET keys are drawn from previously written keys 80% of
// the time). It is the sharded mixture with a single shard.
func NewKVWorkload(rng *rand.Rand) *app.ShardedKVWorkload {
	return app.NewShardedKVWorkload(0, 1, rng)
}

// NewRKVWorkload builds the same mixture encoded for the Redis-like store.
func NewRKVWorkload(rng *rand.Rand) *app.ShardedKVWorkload {
	return app.NewShardedRKVWorkload(0, 1, rng)
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
