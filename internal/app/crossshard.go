package app

import (
	"math/rand"

	"repro/internal/wire"
)

// This file is the application-side support for cross-shard execution:
// the shared merge routine behind every Fragmenter's Merge, and the
// benchmark workloads that mix shard-local traffic with a configurable
// fraction of cross-shard reads and writes for each transactional
// application (the two keyed stores, OrderBook).

// subsetKeys decodes a multi-read body (count + keys; the opcode is
// already consumed) and selects the keys at keyIdx, bounds-checked.
func subsetKeys(rd *wire.Reader, keyIdx []int) ([][]byte, error) {
	keys, err := multiKeys(rd, false)
	if err != nil {
		return nil, err
	}
	sub := make([][]byte, 0, len(keyIdx))
	for _, i := range keyIdx {
		if i < 0 || i >= len(keys) {
			return nil, ErrNoKey
		}
		sub = append(sub, keys[i])
	}
	return sub, nil
}

// subsetPairs decodes a multi-write body and selects the pairs at keyIdx,
// bounds-checked.
func subsetPairs(rd *wire.Reader, keyIdx []int) ([]Pair, error) {
	pairs, ok := decodePairs(rd)
	if !ok || rd.Done() != nil {
		return nil, ErrNoKey
	}
	sub := make([]Pair, 0, len(keyIdx))
	for _, i := range keyIdx {
		if i < 0 || i >= len(pairs) {
			return nil, ErrNoKey
		}
		sub = append(sub, pairs[i])
	}
	return sub, nil
}

// mergeKeyedReads reassembles per-leg multi-read responses into the
// response one shard holding every key would have produced. Every
// transactional app answers multi-reads through multiRead, so the merge is
// shared too (it IS each app's Fragmenter.Merge). legKeys[i] lists the
// original key indices leg i served; the total key count is
// derived from it. If any leg failed, the first failing leg's status (in
// leg order, which is ascending shard order) is returned, so the merged
// outcome is deterministic.
func mergeKeyedReads(legs [][]byte, legKeys [][]int) []byte {
	nKeys := 0
	for _, idx := range legKeys {
		nKeys += len(idx)
	}
	type entry struct {
		ok  bool
		val []byte
	}
	merged := make([]entry, nKeys)
	// Malformed legs merge to the generic StatusBadReq: it is the only
	// error byte that means "failure" in every app's status namespace (an
	// RKV-style RErr, 3, would read as KVStored to a KV client).
	for li, res := range legs {
		if len(res) == 0 {
			return []byte{StatusBadReq}
		}
		if res[0] != StatusOK {
			return []byte{res[0]}
		}
		rd := wire.NewReader(res)
		rd.U8()
		n := int(rd.Uvarint())
		if n != len(legKeys[li]) {
			return []byte{StatusBadReq}
		}
		for pos := 0; pos < n; pos++ {
			e := entry{ok: rd.Bool()}
			if e.ok {
				e.val = rd.Bytes()
			}
			idx := legKeys[li][pos]
			if idx < 0 || idx >= nKeys {
				return []byte{StatusBadReq}
			}
			merged[idx] = e
		}
		if rd.Done() != nil {
			return []byte{StatusBadReq}
		}
	}
	w := wire.NewWriter(64)
	w.U8(StatusOK)
	w.Uvarint(uint64(nKeys))
	for _, e := range merged {
		w.Bool(e.ok)
		if e.ok {
			w.Bytes(e.val)
		}
	}
	return w.Finish()
}

// CrossShardKVWorkload layers a configurable fraction of cross-shard
// operations over the shard-local key-value mixture of either store: with
// probability Frac the next request is a two-shard multi-key GET
// (scatter-gather read) or a two-shard multi-key SET (2PC write),
// alternating between the two; otherwise it delegates to the inner
// shard-targeted workload. The cross-shard draw uses its own rng stream, so
// at Frac = 0 the request stream is bit-identical to the plain sharded
// workload — the property the 0%-fraction benchmark baseline comparison
// relies on.
type CrossShardKVWorkload struct {
	inner *ShardedKVWorkload
	xrng  *rand.Rand
	frac  float64
	read  bool // alternates: next cross op is a read (true) or a write
}

// NewCrossShardRKVWorkload builds the mixed Redis-style workload for the
// client driving `shard`. xrng must be a stream independent of rng (a
// different seed), so the cross-shard decisions do not perturb the
// shard-local stream.
func NewCrossShardRKVWorkload(shard, shards int, frac float64, rng, xrng *rand.Rand) *CrossShardKVWorkload {
	return &CrossShardKVWorkload{inner: NewShardedRKVWorkload(shard, shards, rng), xrng: xrng, frac: frac, read: true}
}

// NewCrossShardKVWorkload is the Memcached-style counterpart (KVMGet reads,
// KVMSet 2PC writes).
func NewCrossShardKVWorkload(shard, shards int, frac float64, rng, xrng *rand.Rand) *CrossShardKVWorkload {
	return &CrossShardKVWorkload{inner: NewShardedKVWorkload(shard, shards, rng), xrng: xrng, frac: frac, read: true}
}

// randKeyOn rejection-samples a random key hashing onto shard s
// (geometric with mean `shards` draws, so cheap for any sane shard count).
func randKeyOn(rng *rand.Rand, s, shards, keyLen int) []byte {
	for {
		k := make([]byte, keyLen)
		rng.Read(k)
		if ShardOfKey(k, shards) == s {
			return k
		}
	}
}

// Next returns the next request: shard-local with probability 1-Frac, a
// two-shard multi-key read or write otherwise.
func (w *CrossShardKVWorkload) Next() []byte {
	in := w.inner
	if w.frac <= 0 || in.shards < 2 || w.xrng.Float64() >= w.frac {
		return in.Next()
	}
	other := (in.shard + 1 + w.xrng.Intn(in.shards-1)) % in.shards
	a := randKeyOn(w.xrng, in.shard, in.shards, in.keyLen)
	b := randKeyOn(w.xrng, other, in.shards, in.keyLen)
	isRead := w.read
	w.read = !w.read
	if isRead {
		return in.enc.mget(a, b)
	}
	va := make([]byte, in.valLen)
	vb := make([]byte, in.valLen)
	w.xrng.Read(va)
	w.xrng.Read(vb)
	return in.enc.mset(Pair{Key: a, Val: va}, Pair{Key: b, Val: vb})
}

// CrossShardOrderWorkload drives the sharded matching engine: shard-local
// symbol-scoped limit orders, with a Frac fraction of cross-shard
// operations alternating between two-symbol top-of-book reads (OpTops,
// scatter-gathered) and atomic two-legged pair orders (OpPair, 2PC).
type CrossShardOrderWorkload struct {
	rng    *rand.Rand
	xrng   *rand.Rand
	frac   float64
	shard  int
	shards int
	read   bool
	symLen int
}

// NewCrossShardOrderWorkload builds the mixed order workload for the
// client driving `shard`.
func NewCrossShardOrderWorkload(shard, shards int, frac float64, rng, xrng *rand.Rand) *CrossShardOrderWorkload {
	return &CrossShardOrderWorkload{
		rng:    rng,
		xrng:   xrng,
		frac:   frac,
		shard:  shard,
		shards: shards,
		read:   true,
		symLen: 8,
	}
}

// order draws a random side/price/qty around a stable mid so books cross
// regularly (matching work, not just resting inserts).
func orderParams(rng *rand.Rand) (side uint8, price, qty uint64) {
	side = OpBuy
	if rng.Intn(2) == 1 {
		side = OpSell
	}
	return side, 95 + uint64(rng.Intn(10)), 1 + uint64(rng.Intn(9))
}

// Next returns the next request.
func (w *CrossShardOrderWorkload) Next() []byte {
	if w.frac > 0 && w.shards >= 2 && w.xrng.Float64() < w.frac {
		other := (w.shard + 1 + w.xrng.Intn(w.shards-1)) % w.shards
		a := randKeyOn(w.xrng, w.shard, w.shards, w.symLen)
		b := randKeyOn(w.xrng, other, w.shards, w.symLen)
		isRead := w.read
		w.read = !w.read
		if isRead {
			return EncodeTops(a, b)
		}
		sideA, priceA, qtyA := orderParams(w.xrng)
		sideB, priceB, qtyB := orderParams(w.xrng)
		return EncodePairOrder(
			OrderLeg{Sym: a, Side: sideA, Price: priceA, Qty: qtyA},
			OrderLeg{Sym: b, Side: sideB, Price: priceB, Qty: qtyB},
		)
	}
	sym := randKeyOn(w.rng, w.shard, w.shards, w.symLen)
	side, price, qty := orderParams(w.rng)
	return EncodeOrderSym(sym, side, price, qty)
}
