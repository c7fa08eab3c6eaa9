package app

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// --- Flip ---------------------------------------------------------------

func TestFlipReverses(t *testing.T) {
	f := NewFlip()
	if got := f.Apply([]byte("abc")); string(got) != "cba" {
		t.Fatalf("Apply = %q", got)
	}
	if got := f.Apply(nil); len(got) != 0 {
		t.Fatalf("empty request: %q", got)
	}
}

func TestFlipQuickInvolution(t *testing.T) {
	f := NewFlip()
	prop := func(b []byte) bool {
		return bytes.Equal(f.Apply(bytes.Clone(f.Apply(b))), b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipSnapshotRoundTrip(t *testing.T) {
	f := NewFlip()
	for i := 0; i < 5; i++ {
		f.Apply([]byte("x"))
	}
	snap := f.Snapshot()
	g := NewFlip()
	g.Restore(snap)
	if !bytes.Equal(g.Snapshot(), snap) {
		t.Fatal("snapshot round trip failed")
	}
}

func TestFlipExecCostGrowsWithSize(t *testing.T) {
	f := NewFlip()
	if f.ExecCost(make([]byte, 4096)) <= f.ExecCost(make([]byte, 16)) {
		t.Fatal("exec cost should grow with request size")
	}
}

// --- keyed stores: behaviour both dialects share, checked once ----------

func TestKeyedSetGetDelete(t *testing.T) {
	for _, c := range keyedCodecs() {
		t.Run(c.name, func(t *testing.T) {
			s := c.mk()
			get, del, set := c.keyOps[0], c.keyOps[1], c.valOps[0]
			if res := s.Apply(set([]byte("k"), []byte("v"))); len(res) != 1 || res[0] != c.stored {
				t.Fatalf("set: %v", res)
			}
			if res := s.Apply(get([]byte("k"))); res[0] != StatusOK || string(res[2:]) != "v" {
				t.Fatalf("get: %v", res)
			}
			if res := s.Apply(del([]byte("k"))); len(res) != 1 || res[0] != c.deleted {
				t.Fatalf("delete: %v", res)
			}
			if res := s.Apply(get([]byte("k"))); len(res) != 1 || res[0] != c.miss {
				t.Fatalf("get after delete: %v", res)
			}
			if res := s.Apply(del([]byte("k"))); len(res) != 1 || res[0] != c.missing {
				t.Fatalf("delete of a missing key: %v", res)
			}
		})
	}
}

func TestKeyedMalformedRequests(t *testing.T) {
	for _, c := range keyedCodecs() {
		t.Run(c.name, func(t *testing.T) {
			s := c.mk()
			getOp, setOp, mgetOp := c.keyOps[0](nil)[0], c.valOps[0](nil, nil)[0], c.mget()[0]
			for _, req := range [][]byte{
				{},
				{99},
				{c.maxOp + 1},
				{getOp},
				{setOp, 0xFF, 0xFF},
				{mgetOp, 0xFF},
			} {
				res := s.Apply(req)
				if len(res) != 1 || res[0] != c.badReq {
					t.Fatalf("malformed request %v -> %v", req, res)
				}
			}
		})
	}
}

// --- KV -----------------------------------------------------------------

func TestKVOverwrite(t *testing.T) {
	kv := NewKV(0)
	kv.Apply(EncodeKVSet([]byte("k"), []byte("v1")))
	kv.Apply(EncodeKVSet([]byte("k"), []byte("v2")))
	res := kv.Apply(EncodeKVGet([]byte("k")))
	if string(res[2:]) != "v2" {
		t.Fatalf("overwrite lost: %v", res)
	}
	if kv.Len() != 1 {
		t.Fatalf("len = %d", kv.Len())
	}
}

func TestKVEviction(t *testing.T) {
	kv := NewKV(3)
	for i := 0; i < 5; i++ {
		kv.Apply(EncodeKVSet([]byte(fmt.Sprintf("k%d", i)), []byte("v")))
	}
	if kv.Len() != 3 {
		t.Fatalf("len = %d, want 3 (eviction bound)", kv.Len())
	}
	// Oldest keys evicted first.
	if res := kv.Apply(EncodeKVGet([]byte("k0"))); res[0] != KVMiss {
		t.Fatal("k0 should have been evicted")
	}
	if res := kv.Apply(EncodeKVGet([]byte("k4"))); res[0] != KVOK {
		t.Fatal("k4 should be present")
	}
}

func TestKVSnapshotDeterministic(t *testing.T) {
	// Two stores filled in different orders must snapshot identically.
	a, b := NewKV(0), NewKV(0)
	keys := []string{"zeta", "alpha", "mid"}
	for _, k := range keys {
		a.Apply(EncodeKVSet([]byte(k), []byte(k+"-v")))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Apply(EncodeKVSet([]byte(keys[i]), []byte(keys[i]+"-v")))
	}
	// Insertion order differs, so the eviction order section differs, but
	// same-order application on replicas is guaranteed by SMR; here we
	// check the map section by re-importing.
	ra, rb := NewKV(0), NewKV(0)
	ra.Restore(a.Snapshot())
	rb.Restore(b.Snapshot())
	for _, k := range keys {
		va := ra.Apply(EncodeKVGet([]byte(k)))
		vb := rb.Apply(EncodeKVGet([]byte(k)))
		if !bytes.Equal(va, vb) {
			t.Fatalf("restored stores disagree on %q", k)
		}
	}
}

func TestKVQuickSnapshotRestore(t *testing.T) {
	prop := func(ops [][2][8]byte) bool {
		kv := NewKV(0)
		for _, op := range ops {
			kv.Apply(EncodeKVSet(op[0][:], op[1][:]))
		}
		snap := kv.Snapshot()
		kv2 := NewKV(0)
		kv2.Restore(snap)
		return bytes.Equal(kv2.Snapshot(), snap) && kv2.Len() == kv.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- RKV ----------------------------------------------------------------

func TestRKVExists(t *testing.T) {
	r := NewRKV()
	if res := r.Apply(EncodeRExists([]byte("k"))); res[0] != ROK || res[1] != 0 {
		t.Fatalf("exists before set: %v", res)
	}
	r.Apply(EncodeRSet([]byte("k"), []byte("v")))
	if res := r.Apply(EncodeRExists([]byte("k"))); res[0] != ROK || res[1] != 1 {
		t.Fatalf("exists: %v", res)
	}
}

func TestRKVIncr(t *testing.T) {
	r := NewRKV()
	for want := int64(1); want <= 3; want++ {
		res := r.Apply(EncodeRIncr([]byte("ctr")))
		if res[0] != ROK {
			t.Fatalf("incr: %v", res)
		}
	}
	res := r.Apply(EncodeRGet([]byte("ctr")))
	if string(res[2:]) != "3" {
		t.Fatalf("counter = %q, want 3", res[2:])
	}
	// INCR on a non-numeric value errors.
	r.Apply(EncodeRSet([]byte("s"), []byte("not-a-number")))
	if res := r.Apply(EncodeRIncr([]byte("s"))); res[0] != RErr {
		t.Fatalf("incr on string: %v", res)
	}
}

func TestRKVAppend(t *testing.T) {
	r := NewRKV()
	r.Apply(EncodeRAppend([]byte("k"), []byte("foo")))
	r.Apply(EncodeRAppend([]byte("k"), []byte("bar")))
	res := r.Apply(EncodeRGet([]byte("k")))
	if string(res[2:]) != "foobar" {
		t.Fatalf("append result: %q", res[2:])
	}
}

func TestRKVMGet(t *testing.T) {
	r := NewRKV()
	r.Apply(EncodeRSet([]byte("a"), []byte("1")))
	r.Apply(EncodeRSet([]byte("c"), []byte("3")))
	res := r.Apply(EncodeRMGet([]byte("a"), []byte("b"), []byte("c")))
	if res[0] != ROK {
		t.Fatalf("mget: %v", res)
	}
}

func TestRKVSnapshotRoundTrip(t *testing.T) {
	r := NewRKV()
	for i := 0; i < 20; i++ {
		r.Apply(EncodeRSet([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))))
	}
	snap := r.Snapshot()
	r2 := NewRKV()
	r2.Restore(snap)
	if !bytes.Equal(r2.Snapshot(), snap) || r2.Len() != 20 {
		t.Fatal("snapshot round trip failed")
	}
}

// --- OrderBook ----------------------------------------------------------

func TestOrderBookRestingAndCrossing(t *testing.T) {
	ob := NewOrderBook()
	// Non-crossing orders rest.
	ob.Apply(EncodeOrder(OpBuy, 99, 10))
	ob.Apply(EncodeOrder(OpSell, 101, 10))
	if ob.BidCount() != 1 || ob.AskCount() != 1 {
		t.Fatalf("book depth: %d bids %d asks", ob.BidCount(), ob.AskCount())
	}
	// A crossing buy takes the ask.
	res := ob.Apply(EncodeOrder(OpBuy, 101, 10))
	_, _, remaining, fills, err := DecodeOrderResp(res)
	if err != nil || remaining != 0 || len(fills) != 1 || fills[0].Price != 101 {
		t.Fatalf("cross: remaining=%d fills=%v err=%v", remaining, fills, err)
	}
	if ob.AskCount() != 0 {
		t.Fatal("ask not consumed")
	}
}

func TestOrderBookPriceTimePriority(t *testing.T) {
	ob := NewOrderBook()
	ob.Apply(EncodeOrder(OpSell, 100, 5)) // order 1: best price, earliest
	ob.Apply(EncodeOrder(OpSell, 100, 5)) // order 2: same price, later
	ob.Apply(EncodeOrder(OpSell, 99, 5))  // order 3: better price
	res := ob.Apply(EncodeOrder(OpBuy, 100, 12))
	_, _, _, fills, _ := DecodeOrderResp(res)
	if len(fills) != 3 {
		t.Fatalf("fills: %v", fills)
	}
	// Best price first (order 3 @99), then time priority (1 before 2).
	if fills[0].MakerID != 3 || fills[0].Price != 99 {
		t.Fatalf("price priority violated: %+v", fills[0])
	}
	if fills[1].MakerID != 1 || fills[2].MakerID != 2 {
		t.Fatalf("time priority violated: %+v", fills)
	}
}

func TestOrderBookPartialFill(t *testing.T) {
	ob := NewOrderBook()
	ob.Apply(EncodeOrder(OpSell, 100, 4))
	res := ob.Apply(EncodeOrder(OpBuy, 100, 10))
	_, _, remaining, fills, _ := DecodeOrderResp(res)
	if remaining != 6 || len(fills) != 1 || fills[0].Qty != 4 {
		t.Fatalf("partial fill: remaining=%d fills=%v", remaining, fills)
	}
	if ob.BidCount() != 1 {
		t.Fatal("remainder should rest on the bid side")
	}
}

func TestOrderBookCancel(t *testing.T) {
	ob := NewOrderBook()
	res := ob.Apply(EncodeOrder(OpSell, 100, 4))
	_, id, _, _, _ := DecodeOrderResp(res)
	res = ob.Apply(EncodeCancel(id))
	ok, _, _, _, _ := DecodeOrderResp(res)
	if !ok || ob.AskCount() != 0 {
		t.Fatal("cancel failed")
	}
	res = ob.Apply(EncodeCancel(id))
	ok, _, _, _, _ = DecodeOrderResp(res)
	if ok {
		t.Fatal("double cancel should fail")
	}
}

func TestOrderBookZeroQtyRejected(t *testing.T) {
	ob := NewOrderBook()
	res := ob.Apply(EncodeOrder(OpBuy, 100, 0))
	ok, _, _, _, _ := DecodeOrderResp(res)
	if ok {
		t.Fatal("zero-quantity order accepted")
	}
}

func TestOrderBookSnapshotRoundTrip(t *testing.T) {
	ob := NewOrderBook()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		side := uint8(OpBuy)
		if rng.Intn(2) == 1 {
			side = OpSell
		}
		ob.Apply(EncodeOrder(side, 90+uint64(rng.Intn(20)), uint64(1+rng.Intn(9))))
	}
	snap := ob.Snapshot()
	ob2 := NewOrderBook()
	ob2.Restore(snap)
	if !bytes.Equal(ob2.Snapshot(), snap) {
		t.Fatal("snapshot round trip failed")
	}
	if ob2.BidCount() != ob.BidCount() || ob2.AskCount() != ob.AskCount() {
		t.Fatal("book depth changed across restore")
	}
}

// TestOrderBookQuickConservation checks the core matching invariant:
// every submitted unit of quantity is either matched (once as taker, once
// as maker) or still resting in the book.
func TestOrderBookQuickConservation(t *testing.T) {
	direct := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ob := NewOrderBook()
		var submitted, matched uint64
		for i := 0; i < 100; i++ {
			side := uint8(OpBuy)
			if rng.Intn(2) == 1 {
				side = OpSell
			}
			qty := uint64(1 + rng.Intn(9))
			submitted += qty
			res := ob.Apply(EncodeOrder(side, 95+uint64(rng.Intn(10)), qty))
			_, _, _, fills, err := DecodeOrderResp(res)
			if err != nil {
				return false
			}
			for _, f := range fills {
				matched += f.Qty // maker volume == taker volume per fill
			}
		}
		// Every submitted unit is either matched (once as taker, once as
		// maker => 2*matched) or still resting.
		return submitted == 2*matched+restingVolume(ob)
	}
	if err := quick.Check(direct, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// restingVolume sums the open quantity on both sides of every book.
func restingVolume(ob *OrderBook) uint64 {
	total := uint64(0)
	for _, b := range ob.books {
		for _, o := range b.bids {
			total += o.Qty
		}
		for _, o := range b.asks {
			total += o.Qty
		}
	}
	return total
}

// TestOrderBookNoCrossedBookInvariant: after any sequence of orders, the
// best bid is strictly below the best ask (otherwise they would have
// matched).
func TestOrderBookNoCrossedBookInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ob := NewOrderBook()
		for i := 0; i < 150; i++ {
			side := uint8(OpBuy)
			if rng.Intn(2) == 1 {
				side = OpSell
			}
			ob.Apply(EncodeOrder(side, 90+uint64(rng.Intn(21)), uint64(1+rng.Intn(5))))
			if b := ob.books[""]; b != nil && len(b.bids) > 0 && len(b.asks) > 0 && b.bids[0].Price >= b.asks[0].Price {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHugeMultiKeyCountRefused: a multi-key count encoded as a huge varint
// (fits uint64, exceeds MaxInt64) must be refused as a bad request, not
// converted to a negative int that panics the slice allocation inside
// Apply on every replica — for every multi-key opcode and key extractor.
func TestHugeMultiKeyCountRefused(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01} // uvarint 2^64-1
	cases := []struct {
		name string
		sm   StateMachine
		op   uint8
		bad  uint8
	}{
		{"rkv-mget", NewRKV(), RMGet, RBadReq},
		{"rkv-mset", NewRKV(), RMSet, RBadReq},
		{"kv-mget", NewKV(0), KVMGet, KVBadReq},
		{"kv-mset", NewKV(0), KVMSet, KVBadReq},
		{"ob-tops", NewOrderBook(), OpTops, StatusBadReq},
	}
	for _, tc := range cases {
		req := append([]byte{tc.op}, huge...)
		res := tc.sm.Apply(req)
		if len(res) != 1 || res[0] != tc.bad {
			t.Errorf("%s: Apply = %v, want [%d]", tc.name, res, tc.bad)
		}
		if _, err := tc.sm.(Router).AppendKeys(nil, req); err == nil {
			t.Errorf("%s: huge count routable", tc.name)
		}
	}
}

// TestAppsDeterminism feeds the same request stream to two instances of
// every app and requires identical responses and snapshots — the property
// SMR depends on.
func TestAppsDeterminism(t *testing.T) {
	builders := map[string]func() StateMachine{
		"flip": func() StateMachine { return NewFlip() },
		"kv":   func() StateMachine { return NewKV(64) },
		"rkv":  func() StateMachine { return NewRKV() },
		"ob":   func() StateMachine { return NewOrderBook() },
	}
	for name, mk := range builders {
		a, b := mk(), mk()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 300; i++ {
			req := make([]byte, 1+rng.Intn(40))
			rng.Read(req)
			ra, rb := a.Apply(req), b.Apply(req)
			if !bytes.Equal(ra, rb) {
				t.Fatalf("%s: nondeterministic response at step %d", name, i)
			}
		}
		if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("%s: nondeterministic snapshot", name)
		}
	}
}

// TestOrderedAnswersShareOneBuffer holds every application to
// StateMachine.Apply's rule: an ordered answer is appended into one buffer
// the instance keeps, so the next call writes over it. Each answer must
// equal the one a twin gives whose buffer was never used (a fresh instance
// restored from the same state), a later answer that fits must reuse the
// earlier one's memory, a warm Flip.Apply must allocate nothing and a warm
// SET of an existing key only the value the store keeps: the key is looked up
// in place.
func TestOrderedAnswersShareOneBuffer(t *testing.T) {
	// The first long answer grows each buffer, so the later ones fit in it.
	k, v, long := []byte("k"), []byte("12"), bytes.Repeat([]byte("v"), 80)
	cases := []struct {
		name string
		mk   func() StateMachine
		reqs [][]byte
	}{
		{"flip", func() StateMachine { return NewFlip() }, [][]byte{
			[]byte("a longer first request"), []byte("abc"), nil, []byte("xyz"),
		}},
		{"kv", func() StateMachine { return NewKV(0) }, [][]byte{
			EncodeKVSet(k, long), EncodeKVGet(k), EncodeKVMGet(k, []byte("none")), EncodeKVMSet(Pair{Key: k, Val: v}),
			EncodeKVDelete(k), EncodeKVDelete(k), EncodeKVGet(k), {0xEE},
			EncodeTxnPrepare(nil, 1, 0, EncodeKVMSet(Pair{Key: k, Val: v})), EncodeTxnCommit(nil, 1), EncodeTxnQueryDecision(nil, 2),
		}},
		{"rkv", func() StateMachine { return NewRKV() }, [][]byte{
			EncodeRSet(k, long), EncodeRGet(k), EncodeRSet(k, v), EncodeRIncr(k), EncodeRAppend(k, v), EncodeRGet(k), EncodeRExists(k),
			EncodeRMGet(k, k), EncodeRMSet(Pair{Key: k, Val: v}), EncodeRDel(k), EncodeTxnListStaged(nil),
		}},
		{"orderbook", func() StateMachine { return NewOrderBook() }, [][]byte{
			EncodeOrder(OpSell, 100, 5), EncodeOrder(OpSell, 101, 5), EncodeOrder(OpBuy, 101, 7), EncodeCancel(2),
			EncodeOrderSym(k, OpBuy, 99, 3), EncodeTops(k, nil), EncodeOrder(OpBuy, 0, 0),
			EncodePairOrder(OrderLeg{Sym: k, Side: OpSell, Price: 99, Qty: 1}, OrderLeg{Sym: v, Side: OpBuy, Price: 5, Qty: 1}),
		}},
	}
	for _, tc := range cases {
		sm := tc.mk()
		var prev []byte
		reused := 0
		for i, req := range tc.reqs {
			twin := tc.mk()
			twin.Restore(sm.Snapshot())
			want := twin.Apply(req)
			got := sm.Apply(req)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: answer %d is %v, a never-used twin answers %v", tc.name, i, got, want)
			}
			if len(got) > 0 && len(prev) > 0 && len(got) <= cap(prev) {
				if unsafe.SliceData(got) != unsafe.SliceData(prev) {
					t.Fatalf("%s: answer %d (%d bytes) is a fresh slice, not the buffer of answer %d (capacity %d)",
						tc.name, i, len(got), i-1, cap(prev))
				}
				reused++
			}
			if len(got) > 0 {
				prev = got
			}
		}
		if reused < len(tc.reqs)/2 {
			t.Fatalf("%s: %d of %d answers reused the buffer", tc.name, reused, len(tc.reqs))
		}
	}

	f := NewFlip()
	req := []byte("0123456789abcdef0123456789abcdef")
	f.Apply(req)
	if n := testing.AllocsPerRun(100, func() { f.Apply(req) }); n != 0 {
		t.Errorf("warm Flip.Apply allocates %.1f times, want 0", n)
	}
	kv := NewKV(0)
	set := EncodeKVSet([]byte("existing"), []byte("value"))
	kv.Apply(set)
	if n := testing.AllocsPerRun(100, func() { kv.Apply(set) }); n != 1 {
		t.Errorf("warm SET of an existing key allocates %.1f times, want 1 (the stored value)", n)
	}
}
