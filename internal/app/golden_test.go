package app

// Refactor safety net for the keyed stores: one SHA-256 per store over a
// seeded stream that reaches every opcode (valid, truncated, trailing,
// over-bound), the OpTxn* envelope (duplicate and late deliveries
// included), requests that park and release, unordered and pinned reads,
// the routing and fragment surface, and Snapshot -> Restore -> Snapshot.
// The digests were captured at the commit BEFORE KV and RKV became two
// dialects of one engine and must never move: a changed digest is a
// changed response byte, snapshot byte, crossed flag or park decision.
//
// They were captured again when a commit decision began to install the
// coordinator's fragment: the stream's random OpTxnDecide(commit) commands
// now commit a fragment staged locally under the same txid, answering as
// OpTxnCommit does and releasing the requests parked behind it (kv(8)
// 72f55286 -> 1ecc432f, kv(0) 02d6e98a -> ef922de0, rkv 003e9aa2 ->
// e3940c7b).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// keyedStore is every capability the two key-value stores carry.
type keyedStore interface {
	Fragmenter
	TxnParticipant
	Deferring
	Versioned
	VersionedReadExecutor
}

// keyedCodec is a test's view of one store's wire dialect, by exported
// names only: how to build it, its request builders and its status bytes.
type keyedCodec struct {
	name    string
	mk      func() keyedStore
	keyOps  []func(k []byte) []byte    // single-key commands, GET first
	valOps  []func(k, v []byte) []byte // key+value commands, SET first
	mget    func(keys ...[]byte) []byte
	mset    func(pairs ...Pair) []byte
	maxOp   uint8 // highest opcode of the dialect
	stored  uint8 // SET acknowledgement
	deleted uint8 // DELETE of a present key
	missing uint8 // DELETE of an absent key
	miss    uint8 // GET of an absent key
	badReq  uint8 // any malformed request
}

func kvCodec(maxItems int) keyedCodec {
	return keyedCodec{
		name:    fmt.Sprintf("kv(%d)", maxItems),
		mk:      func() keyedStore { return NewKV(maxItems) },
		keyOps:  []func([]byte) []byte{EncodeKVGet, EncodeKVDelete},
		valOps:  []func(k, v []byte) []byte{EncodeKVSet},
		mget:    EncodeKVMGet,
		mset:    EncodeKVMSet,
		maxOp:   KVMGet,
		stored:  KVStored,
		deleted: KVDeleted,
		missing: KVNotFound,
		miss:    KVMiss,
		badReq:  KVBadReq,
	}
}

func rkvCodec() keyedCodec {
	return keyedCodec{
		name:    "rkv",
		mk:      func() keyedStore { return NewRKV() },
		keyOps:  []func([]byte) []byte{EncodeRGet, EncodeRDel, EncodeRIncr, EncodeRExists},
		valOps:  []func(k, v []byte) []byte{EncodeRSet, EncodeRAppend},
		mget:    EncodeRMGet,
		mset:    EncodeRMSet,
		maxOp:   RMSet,
		stored:  ROK,
		deleted: ROK,
		missing: RMiss,
		miss:    RMiss,
		badReq:  RBadReq,
	}
}

// keyedCodecs lists both dialects (KV unbounded) for the table tests.
func keyedCodecs() []keyedCodec { return []keyedCodec{kvCodec(0), rkvCodec()} }

// fold accumulates length-framed observations into one digest.
type fold struct{ h hash.Hash }

func (f *fold) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f *fold) flag(b bool) {
	if b {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

// bytes folds a slice; nil (a parked request's response) is distinct from
// empty.
func (f *fold) bytes(b []byte) {
	if b == nil {
		f.u64(^uint64(0))
		return
	}
	f.u64(uint64(len(b)))
	f.h.Write(b)
}

// goldenRun drives one store.
type goldenRun struct {
	c    keyedCodec
	s    keyedStore
	rng  *rand.Rand
	f    fold
	head uint64 // state version of the last applied command
	txid uint64 // newest transaction id drawn
	// coverage counters: the stream must reach each of these.
	parked, released, crossed, refused, evictedMiss int
}

func (g *goldenRun) key() []byte { return []byte(fmt.Sprintf("k%02d", g.rng.Intn(12))) }

func (g *goldenRun) val() []byte {
	if g.rng.Intn(3) == 0 {
		return []byte(fmt.Sprint(g.rng.Intn(1000))) // numeric: INCR succeeds on it
	}
	v := make([]byte, g.rng.Intn(9))
	g.rng.Read(v)
	return v
}

func (g *goldenRun) keys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.key()
	}
	return out
}

func (g *goldenRun) pairs(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: g.key(), Val: g.val()}
	}
	return out
}

// hugeCount is a uvarint above MaxInt64; overCount is one past the
// multi-key bound.
var (
	hugeCount = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	overCount = []byte{0x81, 0x08} // 1025
)

// valid draws one well-formed command of the dialect.
func (g *goldenRun) valid() []byte {
	switch n := g.rng.Intn(10); {
	case n < 4:
		return g.c.keyOps[g.rng.Intn(len(g.c.keyOps))](g.key())
	case n < 7:
		return g.c.valOps[g.rng.Intn(len(g.c.valOps))](g.key(), g.val())
	case n < 9:
		return g.c.mget(g.keys(g.rng.Intn(4))...)
	default:
		return g.c.mset(g.pairs(g.rng.Intn(4))...)
	}
}

// malformed draws a request the store must refuse (or, for an unknown
// opcode below the transaction range, answer as a bad request).
func (g *goldenRun) malformed() []byte {
	req := g.valid()
	switch g.rng.Intn(6) {
	case 0:
		return req[:g.rng.Intn(len(req))] // truncated, possibly empty
	case 1:
		return append(req, byte(g.rng.Intn(256))) // trailing byte
	case 2:
		return []byte{g.c.maxOp + 1 + uint8(g.rng.Intn(int(TxnOpBase-g.c.maxOp)-1)), 1, 'x'}
	case 3:
		return append([]byte{g.c.mget()[0]}, hugeCount...)
	case 4:
		return append([]byte{g.c.mset()[0]}, overCount...)
	default:
		return append([]byte{uint8(1 + g.rng.Intn(int(g.c.maxOp)))}, 0xFF, 0xFF)
	}
}

// txn draws one envelope command over a sliding window of transaction
// ids, so prepares are re-delivered, commits and aborts arrive twice or
// before their prepare, and decisions disagree.
func (g *goldenRun) txn() []byte {
	if g.rng.Intn(4) == 0 {
		// The id leaving the window is resolved first, so its locks cannot
		// strand and slowly freeze the whole key space.
		g.txid++
		if g.rng.Intn(2) == 0 {
			return EncodeTxnCommit(nil, g.txid-4)
		}
		return EncodeTxnAbort(nil, g.txid-4)
	}
	id := g.txid - uint64(g.rng.Intn(4))
	switch n := g.rng.Intn(20); {
	case n < 7:
		var frag []byte
		switch g.rng.Intn(8) {
		case 0:
			frag = g.c.mget(g.keys(2)...) // not a write fragment
		case 1:
			frag = append(g.c.mset(g.pairs(2)...), 0) // trailing byte
		case 2:
			frag = nil
		default:
			frag = g.c.mset(g.pairs(1 + g.rng.Intn(3))...)
		}
		return EncodeTxnPrepare(nil, id, uint64(g.rng.Intn(3)), frag)
	case n < 13:
		return EncodeTxnCommit(nil, id)
	case n < 16:
		return EncodeTxnAbort(nil, id)
	case n < 18:
		return EncodeTxnDecide(nil, id, g.rng.Intn(2) == 0)
	case n < 19:
		return EncodeTxnQueryDecision(nil, id)
	default:
		return []byte{OpTxnCommit, 1, 2} // truncated envelope
	}
}

// apply executes one ordered command and folds everything the replica
// layer would observe: the response, the park ticket, the releases.
func (g *goldenRun) apply(req []byte) []byte {
	g.head++
	g.s.BeginSlot(g.head)
	res := g.s.Apply(req)
	g.f.bytes(res)
	ticket := g.s.TakeParkedTicket()
	g.f.u64(ticket)
	if ticket != 0 {
		g.parked++
	}
	if len(res) == 1 && res[0] == StatusLocked {
		g.refused++
	}
	for _, r := range g.s.TakeReleased() {
		g.released++
		g.f.u64(r.Ticket)
		g.f.bytes(r.Result)
		g.f.bytes(r.Req)
	}
	return res
}

// route folds the pure request-shaped surface: Keys, ReadOnly, and for
// multi-key requests Fragment over index subsets (out-of-range included)
// and Merge over the legs the store itself answers.
func (g *goldenRun) route(req []byte) {
	keys, err := g.s.AppendKeys(nil, req)
	g.f.flag(err != nil)
	g.f.u64(uint64(len(keys)))
	for _, k := range keys {
		g.f.bytes(k)
	}
	g.f.flag(g.s.ReadOnly(req))
	if len(keys) < 2 {
		frag, err := g.s.Fragment(nil, req, []int{0})
		g.f.flag(err != nil)
		g.f.bytes(frag)
		return
	}
	split := 1 + g.rng.Intn(len(keys)-1)
	var legKeys [2][]int
	for i := range keys {
		if i < split {
			legKeys[0] = append(legKeys[0], i)
		} else {
			legKeys[1] = append(legKeys[1], i)
		}
	}
	var legs [][]byte
	for _, idx := range legKeys {
		frag, err := g.s.Fragment(nil, req, idx)
		g.f.flag(err != nil)
		g.f.bytes(frag)
		if g.s.ReadOnly(req) {
			leg, _ := g.s.ApplyRead(frag)
			legs = append(legs, bytes.Clone(leg)) // the next read overwrites leg
		}
	}
	if legs != nil {
		g.f.bytes(g.s.Merge(req, legs, legKeys[:]))
		g.f.bytes(g.s.Merge(req, [][]byte{legs[0], {StatusLocked}}, legKeys[:]))
	}
	_, err = g.s.Fragment(nil, req, []int{len(keys)})
	g.f.flag(err != nil)
}

// reads folds the unordered and pinned answers to one request, at the
// head, at recent versions and below the GC horizon.
func (g *goldenRun) reads(req []byte) {
	res, ok := g.s.ApplyRead(req)
	g.f.bytes(res)
	g.f.flag(ok)
	for _, at := range []uint64{g.head, g.head - uint64(g.rng.Intn(20)), g.head - uint64(g.rng.Intn(200)), g.s.VersionHorizon() - 1} {
		if at > g.head {
			at = 0
		}
		res, crossed, ok := g.s.ApplyReadAt(req, at)
		g.f.bytes(res)
		g.f.flag(crossed)
		g.f.flag(ok)
		if crossed {
			g.crossed++
		}
	}
}

// checkpoint ratchets the GC horizon, folds the snapshot and continues on
// a store restored from it (Snapshot -> Restore -> Snapshot is identity).
func (g *goldenRun) checkpoint(t *testing.T) {
	if g.head > 60 {
		g.s.PruneVersions(g.head - 60)
	}
	snap := g.s.Snapshot()
	g.f.bytes(snap)
	g.f.u64(uint64(g.s.VersionCount()))
	fresh := g.c.mk()
	fresh.Restore(snap)
	if again := fresh.Snapshot(); string(again) != string(snap) {
		t.Fatalf("%s: Snapshot -> Restore -> Snapshot changed %d -> %d bytes", g.c.name, len(snap), len(again))
	}
	g.s = fresh
}

func goldenDigest(t *testing.T, c keyedCodec, seed int64, evicts bool) string {
	g := &goldenRun{c: c, s: c.mk(), rng: rand.New(rand.NewSource(seed)), f: fold{sha256.New()}, txid: 4}
	for i := 0; i < 4000; i++ {
		var req []byte
		switch n := g.rng.Intn(20); {
		case n < 11:
			req = g.valid()
		case n < 14:
			req = g.malformed()
		default:
			req = g.txn()
		}
		g.route(req)
		g.apply(req)
		if g.rng.Intn(3) == 0 {
			probe := g.valid()
			if g.rng.Intn(5) == 0 {
				probe = g.malformed()
			}
			g.reads(probe)
		}
		if i%250 == 249 {
			g.checkpoint(t)
		}
	}
	// Wait-queue overflow: behind one staged transaction the queue fills,
	// the overflow is refused with StatusLocked, and the commit releases
	// every parked request in ticket order.
	for id := g.txid - 3; id <= g.txid; id++ {
		g.apply(EncodeTxnAbort(nil, id))
	}
	hot := []byte("hot")
	g.txid += 10
	g.apply(EncodeTxnPrepare(nil, g.txid, 0, g.c.mset(Pair{Key: hot, Val: []byte("t")})))
	for i := 0; i < parkedCap+8; i++ {
		g.apply(g.c.valOps[0](hot, []byte{byte(i)}))
	}
	g.reads(g.c.mget(hot, g.key()))
	g.checkpoint(t)
	g.apply(EncodeTxnCommit(nil, g.txid))
	// Eviction is observable as a miss on the oldest key of a fresh burst.
	for i := 0; i < 40; i++ {
		g.apply(g.c.valOps[0]([]byte(fmt.Sprintf("burst%02d", i)), []byte("v")))
	}
	if res := g.apply(g.c.keyOps[0]([]byte("burst00"))); len(res) == 1 {
		g.evictedMiss++
	}
	g.checkpoint(t)
	t.Logf("%s: parked %d released %d crossed %d refused %d evicted-miss %d",
		c.name, g.parked, g.released, g.crossed, g.refused, g.evictedMiss)
	if g.parked < parkedCap+100 || g.released != g.parked || g.crossed < 100 || g.refused != 8 || (g.evictedMiss == 1) != evicts {
		t.Fatalf("%s: the stream misses a behaviour it exists to pin", c.name)
	}
	return hex.EncodeToString(g.f.h.Sum(nil))
}

// TestGoldenKeyedStores pins the three store shapes: a Memcached-style
// store small enough that FIFO eviction fires, an unbounded one, and the
// Redis-style store.
func TestGoldenKeyedStores(t *testing.T) {
	cases := []struct {
		codec  keyedCodec
		evicts bool
		want   string
	}{
		{kvCodec(8), true, "1ecc432fdd53b668c9a827caa1847c9f252e5492383e4190b590d8ebbfedd853"},
		{kvCodec(0), false, "ef922de0cc2b004cce9b00b3c8c8c95c2ec7adb7d8d170d788c073a1056ac8e5"},
		{rkvCodec(), false, "e3940c7ba00e252d793c8f5b6e208a69f57d23770ce77b01f9df0fb1aa1fa5a9"},
	}
	for _, tc := range cases {
		t.Run(tc.codec.name, func(t *testing.T) {
			if got := goldenDigest(t, tc.codec, 14, tc.evicts); got != tc.want {
				t.Fatalf("%s digest = %s, want %s (see the top of the file)", tc.codec.name, got, tc.want)
			}
		})
	}
}
