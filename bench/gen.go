package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"repro/internal/app"
	"repro/internal/wire"
)

// This file holds the seeded request generators and the answer checks that
// go with them. The program under test only ever sees the generated request
// bytes; everything random about a run (keys, values, read/write draws,
// cross-shard draws) comes from the rand.Rand the harness seeds from -seed.

// opClass splits latencies per request class.
type opClass uint8

const (
	classWrite opClass = iota // ordered single-key write (or a Flip)
	classRead                 // single-key read
	classMGet                 // cross-shard scatter-gather read
	classTxn                  // cross-shard 2PC write
	numClasses
)

// op is one generated request plus what its checker needs to judge the
// response.
type op struct {
	req    []byte
	class  opClass
	client int
	key    int    // key index of a single-key KV op, else -1
	ver    uint64 // version a SET writes
	floor  uint64 // oldest version a GET may return (0: a miss is allowed)
}

// generator produces the request stream of one workload and judges every
// response. next is called when client has a free pipeline slot; check is
// called with the f+1-confirmed response and reports whether it is correct.
type generator interface {
	next(client int) op
	check(o op, res []byte) bool
}

// --- Flip ---------------------------------------------------------------

// flipGen emits fixed-size random Flip requests and replays every response
// against a bare reference state machine (depth 1, so order is total).
type flipGen struct {
	size int
	rng  *rand.Rand
	ref  *app.Flip
}

func newFlipGen(size int, rng *rand.Rand) *flipGen {
	return &flipGen{size: size, rng: rng, ref: app.NewFlip()}
}

func (g *flipGen) next(client int) op {
	req := make([]byte, g.size)
	g.rng.Read(req)
	return op{req: req, class: classWrite, client: client, key: -1}
}

func (g *flipGen) check(o op, res []byte) bool {
	return bytes.Equal(res, g.ref.Apply(o.req))
}

// --- KV point reads and writes ---------------------------------------------

// kvGen emits KV point GETs and SETs over a fixed key set. Every value
// carries its key index and a per-key version, so a GET response can be
// judged without knowing the order consensus chose for concurrent requests:
//
//   - key k is written only by client k mod clients, and that client never
//     has two SETs of one key in flight, so versions of a key are applied
//     in the order they were issued;
//   - a GET must return a version at least as new as the newest this client
//     has read of the key or (for the key's writer) had acknowledged before
//     the GET was issued — monotonic reads and read-your-writes, which the
//     fast read path promises — and no newer than the newest issued.
//
// With ref set (one client at depth 1) every response is instead replayed
// against a bare reference KV.
type kvGen struct {
	rng      *rand.Rand
	clients  int
	readFrac float64
	valLen   int
	keys     [][]byte
	issued   []uint64   // newest version issued per key
	acked    []uint64   // newest version acknowledged per key
	writing  []bool     // a SET of the key is in flight
	written  []int      // keys with an acknowledged SET: what GETs draw from
	seen     [][]uint64 // per client, newest version read per key
	ref      *app.KV
}

func newKVGen(rng *rand.Rand, clients, nKeys, keyLen, valLen int, readFrac float64, replay bool) *kvGen {
	g := &kvGen{
		rng: rng, clients: clients, readFrac: readFrac, valLen: valLen,
		issued: make([]uint64, nKeys), acked: make([]uint64, nKeys), writing: make([]bool, nKeys),
	}
	for i := 0; i < nKeys; i++ {
		k := make([]byte, keyLen)
		rng.Read(k)
		g.keys = append(g.keys, k)
	}
	for c := 0; c < clients; c++ {
		g.seen = append(g.seen, make([]uint64, nKeys))
	}
	if replay {
		g.ref = app.NewKV(0)
	}
	return g
}

func (g *kvGen) get(client, k int) op {
	floor := g.seen[client][k]
	if k%g.clients == client && g.acked[k] > floor {
		floor = g.acked[k]
	}
	return op{req: app.EncodeKVGet(g.keys[k]), class: classRead, client: client, key: k, floor: floor}
}

func (g *kvGen) next(client int) op {
	// Until the first SET is acknowledged the stream is all writes, so
	// GETs always target keys that hold a value.
	if g.rng.Float64() < g.readFrac && len(g.written) > 0 {
		return g.get(client, g.written[g.rng.Intn(len(g.written))])
	}
	// Draw one of this client's own keys without a SET in flight. A client
	// owns far more keys than its pipeline depth, so this terminates fast.
	owned := (len(g.keys) - client + g.clients - 1) / g.clients
	for {
		k := client + g.clients*g.rng.Intn(owned)
		if g.writing[k] {
			continue
		}
		g.writing[k] = true
		g.issued[k]++
		val := make([]byte, g.valLen)
		g.rng.Read(val)
		binary.LittleEndian.PutUint64(val[0:], uint64(k))
		binary.LittleEndian.PutUint64(val[8:], g.issued[k])
		return op{req: app.EncodeKVSet(g.keys[k], val), class: classWrite, client: client, key: k, ver: g.issued[k]}
	}
}

func (g *kvGen) check(o op, res []byte) bool {
	if o.class == classWrite {
		g.writing[o.key] = false
		if g.acked[o.key] == 0 {
			g.written = append(g.written, o.key)
		}
		g.acked[o.key] = o.ver
	}
	if g.ref != nil {
		return bytes.Equal(res, g.ref.Apply(o.req))
	}
	if o.class == classWrite {
		return len(res) == 1 && res[0] == app.KVStored
	}
	if len(res) == 1 && res[0] == app.KVMiss {
		return o.floor == 0
	}
	rd := wire.NewReader(res)
	if rd.U8() != app.KVOK {
		return false
	}
	val := rd.BytesView()
	if rd.Done() != nil || len(val) != g.valLen {
		return false
	}
	k, ver := binary.LittleEndian.Uint64(val[0:]), binary.LittleEndian.Uint64(val[8:])
	if k != uint64(o.key) || ver < o.floor || ver > g.issued[o.key] {
		return false
	}
	if ver > g.seen[o.client][o.key] {
		g.seen[o.client][o.key] = ver
	}
	return true
}

// readBack returns one GET per key. Issued after the drain, each must
// return exactly the key's last acknowledged write (its floor is then also
// the newest version issued), or a miss for a key never written.
func (g *kvGen) readBack() []op {
	ops := make([]op, len(g.keys))
	for k := range g.keys {
		ops[k] = g.get(k%g.clients, k)
	}
	return ops
}

// --- RKV with cross-shard operations ----------------------------------------

// rkvTxnGen emits the Redis-style mixture for the client driving one shard
// (client i drives shard i): shard-local SETs and GETs (30% GETs, 80% of
// them on keys written before) with a crossFrac share of two-shard
// operations, alternating scatter-gather MGETs and 2PC MSETs. Keys are
// rejection-sampled onto the wanted shard, so every request still routes
// through the hash-of-key path.
type rkvTxnGen struct {
	shards    int
	crossFrac float64
	rng       []*rand.Rand // per client, shard-local stream
	xrng      []*rand.Rand // per client, cross-shard draws
	written   [][][]byte
	nextRead  []bool // per client: the next cross-shard op is an MGET
}

func newRKVTxnGen(seed int64, shards int, crossFrac float64) *rkvTxnGen {
	g := &rkvTxnGen{shards: shards, crossFrac: crossFrac, written: make([][][]byte, shards)}
	for c := 0; c < shards; c++ {
		g.rng = append(g.rng, rand.New(rand.NewSource(seed+int64(c))))
		g.xrng = append(g.xrng, rand.New(rand.NewSource(seed+1000+int64(c))))
		g.nextRead = append(g.nextRead, true)
	}
	return g
}

const (
	rkvKeyLen = 16
	rkvValLen = 32
)

func (g *rkvTxnGen) keyOn(rng *rand.Rand, shard int) []byte {
	for {
		k := make([]byte, rkvKeyLen)
		rng.Read(k)
		if app.ShardOfKey(k, g.shards) == shard {
			return k
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func (g *rkvTxnGen) next(client int) op {
	rng, xrng := g.rng[client], g.xrng[client]
	if g.shards > 1 && xrng.Float64() < g.crossFrac {
		other := (client + 1 + xrng.Intn(g.shards-1)) % g.shards
		a, b := g.keyOn(xrng, client), g.keyOn(xrng, other)
		read := g.nextRead[client]
		g.nextRead[client] = !read
		if read {
			return op{req: app.EncodeRMGet(a, b), class: classMGet, client: client, key: -1}
		}
		return op{req: app.EncodeRMSet(
			app.Pair{Key: a, Val: randBytes(xrng, rkvValLen)},
			app.Pair{Key: b, Val: randBytes(xrng, rkvValLen)},
		), class: classTxn, client: client, key: -1}
	}
	w := g.written[client]
	if rng.Float64() < 0.30 && len(w) > 0 {
		key := w[rng.Intn(len(w))]
		if rng.Float64() >= 0.80 {
			key = g.keyOn(rng, client)
		}
		return op{req: app.EncodeRGet(key), class: classRead, client: client, key: -1}
	}
	key := g.keyOn(rng, client)
	if len(w) < 4096 {
		g.written[client] = append(w, key)
	}
	return op{req: app.EncodeRSet(key, randBytes(rng, rkvValLen)), class: classWrite, client: client, key: -1}
}

// check judges the status byte: pipelined clients on four shards have no
// total order the harness could replay, so state agreement is checked after
// the drain instead (byte-equal replica snapshots). An aborted transaction
// is a definitive outcome, not a failure.
func (g *rkvTxnGen) check(o op, res []byte) bool {
	if len(res) == 0 {
		return false
	}
	switch o.class {
	case classWrite:
		return len(res) == 1 && res[0] == app.ROK
	case classRead:
		return res[0] == app.ROK || (len(res) == 1 && res[0] == app.RMiss)
	case classMGet:
		return res[0] == app.StatusOK
	default:
		return len(res) == 1 && (res[0] == app.StatusOK || res[0] == app.StatusAborted)
	}
}

// aborted reports whether res is the outcome of an aborted 2PC write.
func aborted(o op, res []byte) bool {
	return o.class == classTxn && len(res) == 1 && res[0] == app.StatusAborted
}
