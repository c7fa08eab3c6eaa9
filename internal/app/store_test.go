package app

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/wire"
)

// key16 and val32 are the paper's Memcached and Redis item shape (§7.1): a
// 16-byte key and a 32-byte value, both distinct per i.
func key16(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }
func val32(i int) []byte { return []byte(fmt.Sprintf("value-%026d", i)) }

// allocsPer returns the heap allocations per call of f over n calls, as a
// fraction: testing.AllocsPerRun's integer quotient would let a gate miss up
// to 0.99 allocations a call.
func allocsPer(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestNewKeyCostsOneAllocation: a warm store pays at most a tenth of an
// allocation for a SET of a new 16 B key with a 32 B value: the chain that
// holds both is carved from a block of chainBlock chains (1/31), and the
// map's growth and the eviction order's are amortized. An overwrite costs
// one, the value's copy.
func TestNewKeyCostsOneAllocation(t *testing.T) {
	if size := unsafe.Sizeof(chain{}); size != 128 {
		t.Fatalf("a chain record is %d bytes, want the 128-byte size class", size)
	}
	const warm, runs = 4096, 2000
	for _, tc := range []struct {
		name string
		sm   StateMachine
		set  func(k, v []byte) []byte
	}{
		{"kv", NewKV(0), EncodeKVSet},
		{"rkv", NewRKV(), EncodeRSet},
	} {
		reqs := make([][]byte, 0, warm+runs+1)
		for i := 0; i < cap(reqs); i++ {
			reqs = append(reqs, tc.set(key16(i), val32(i)))
		}
		for _, req := range reqs[:warm] {
			tc.sm.Apply(req)
		}
		next := warm
		perSet := allocsPer(runs, func() {
			tc.sm.Apply(reqs[next])
			next++
		})
		if perSet > 0.1 {
			t.Errorf("%s: a SET of a new key allocates %.3f times, want <= 0.1 (a chain block per 31 keys)", tc.name, perSet)
		}
		next = 0
		perOverwrite := allocsPer(runs, func() {
			tc.sm.Apply(reqs[next])
			next++
		})
		if perOverwrite > 1 {
			t.Errorf("%s: an overwrite allocates %.3f times, want <= 1 (the value's copy)", tc.name, perOverwrite)
		}
		t.Logf("%s: %.3f allocations per new key, %.3f per overwrite", tc.name, perSet, perOverwrite)
	}
}

// TestStoreKeepsItsOwnCopies: the store copies every key and value it keeps,
// so scribbling over what a caller handed it, a request after Apply, a 2PC
// fragment after Prepare and Commit or a snapshot after RestoreFrom, changes
// no answer of Get, GetAt or SnapshotTo, across a garbage collection. Every
// value it returns is capped (cap == len), and a key and value too long for
// a chain's room take one exact-size block and read back.
func TestStoreKeepsItsOwnCopies(t *testing.T) {
	long := bytes.Repeat([]byte("L"), 2*chainRoom)
	pairs := func(gen string) []Pair {
		return []Pair{{Key: []byte("t1"), Val: []byte("txn-" + gen)}, {Key: []byte("t2"), Val: []byte("txn2-" + gen)}}
	}
	// Slot 1 sets, slot 2 overwrites, slots 3-6 stage and commit two
	// transactions, the second staged in the first's recycled record.
	slots := [][]byte{
		EncodeRSet([]byte("a"), []byte("first")),
		EncodeRSet(long, long),
		EncodeRMSet(Pair{Key: []byte("b"), Val: []byte("bee")}, Pair{Key: []byte("a"), Val: []byte("second")}),
		EncodeTxnPrepare(nil, 1, 0, EncodeRMSet(pairs("one")...)),
		EncodeTxnCommit(nil, 1),
		EncodeTxnPrepare(nil, 2, 0, EncodeRMSet(Pair{Key: []byte("t1"), Val: []byte("txn-two-longer")})),
		EncodeTxnCommit(nil, 2),
	}
	twin := NewRKV()
	for i, req := range slots {
		twin.BeginSlot(uint64(i + 1))
		twin.Apply(bytes.Clone(req))
	}

	s := NewRKV()
	for i, req := range slots {
		s.BeginSlot(uint64(i + 1))
		s.Apply(req)
		scribble(req)
	}
	runtime.GC()
	sameStore(t, "after Apply", s.vs, twin.vs, len(slots))
	// The twin reuses a staged record as s does, so the newest values are
	// also checked by name.
	for k, want := range map[string]string{"a": "second", "b": "bee", "t1": "txn-two-longer", "t2": "txn2-one"} {
		if v, ok := s.vs.Get([]byte(k)); !ok || string(v) != want {
			t.Fatalf("after Apply: Get(%q) = %q, %v, want %q", k, v, ok, want)
		}
	}

	snap := s.Snapshot()
	restored := NewRKV()
	restored.Restore(snap)
	scribble(snap)
	runtime.GC()
	sameStore(t, "after RestoreFrom", restored.vs, twin.vs, len(slots))

	for _, vs := range []*VersionedStore{s.vs, restored.vs} {
		c := vs.chains[string(long)]
		v, ok := vs.Get(long)
		if !ok || !bytes.Equal(v, long) || c.key != string(long) {
			t.Fatalf("a %d-byte key and value read back as %q, %v", 2*len(long), v, ok)
		}
		room := uintptr(unsafe.Pointer(&c.room))
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(v))); p >= room && p < room+chainRoom {
			t.Fatal("a key and value over a chain's room were copied into it")
		}
	}
}

// scribble overwrites b, as a caller may once the store has returned.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// sameStore requires got to answer every Get, every GetAt up to version
// last and SnapshotTo as want does, each value capped.
func sameStore(t *testing.T, when string, got, want *VersionedStore, last int) {
	t.Helper()
	if a, b := storeSnapshot(got), storeSnapshot(want); !bytes.Equal(a, b) {
		t.Fatalf("%s: SnapshotTo differs from a store that kept clean requests", when)
	}
	for k := range want.chains {
		kb := []byte(k)
		for at := uint64(0); at <= uint64(last)+1; at++ {
			v, ok := got.GetAt(kb, at)
			w, wok := want.GetAt(kb, at)
			if ok != wok || !bytes.Equal(v, w) {
				t.Fatalf("%s: GetAt(%q, %d) = %q, %v, want %q, %v", when, k, at, v, ok, w, wok)
			}
			if cap(v) != len(v) {
				t.Fatalf("%s: GetAt(%q, %d) has cap %d > len %d", when, k, at, cap(v), len(v))
			}
		}
		v, ok := got.Get(kb)
		w, wok := want.Get(kb)
		if ok != wok || !bytes.Equal(v, w) || cap(v) != len(v) {
			t.Fatalf("%s: Get(%q) = %q (cap %d), %v, want %q, %v", when, k, v, cap(v), ok, w, wok)
		}
	}
}

func storeSnapshot(vs *VersionedStore) []byte {
	w := wire.NewWriter(256)
	vs.SnapshotTo(w)
	return w.Finish()
}

// TestStoreSnapshotRestoreSnapshot: a store restored from a snapshot
// serializes to the same bytes, for a key with several versions, a
// tombstone, a tombstone-first chain and a key too long for a chain's room,
// and its chains have the shape write gives them: key and first value in
// the record's room when they fit, the key string shared by the eviction
// order.
func TestStoreSnapshotRestoreSnapshot(t *testing.T) {
	long := bytes.Repeat([]byte("k"), chainRoom+1)
	vs := NewVersionedStore()
	for s := uint64(1); s <= 4; s++ {
		vs.BeginSlot(s)
		vs.Set([]byte("multi"), []byte(fmt.Sprintf("v%d", s)))
		vs.Set([]byte("gone"), []byte("x"))
		vs.Set(long, []byte{byte(s)})
	}
	vs.BeginSlot(5)
	vs.Delete([]byte("gone"))
	vs.SetTxn([]byte("multi"), []byte("txn"))
	vs.BeginSlot(6)
	vs.Delete([]byte("back"))
	vs.BeginSlot(7)
	vs.Set([]byte("back"), []byte("again"))
	vs.Ratchet(2)

	first := storeSnapshot(vs)
	got := NewVersionedStore()
	rd := wire.NewReader(bytes.Clone(first))
	got.RestoreFrom(rd)
	if err := rd.Done(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if second := storeSnapshot(got); !bytes.Equal(first, second) {
		t.Fatalf("Snapshot -> Restore -> Snapshot differs:\n%x\n%x", first, second)
	}
	if got.Len() != vs.Len() || got.VersionCount() != vs.VersionCount() {
		t.Fatalf("restored (len, versions) = (%d, %d), want (%d, %d)", got.Len(), got.VersionCount(), vs.Len(), vs.VersionCount())
	}
	c := got.chains["multi"]
	if len(c.versions) < 2 {
		t.Fatalf("multi restored with %d versions", len(c.versions))
	}
	room := uintptr(unsafe.Pointer(&c.room))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(c.key))); p != room {
		t.Fatal("a restored chain's key is not in the record's room")
	}

	// A restored KV's eviction order shares its chains' key strings.
	kv := NewKV(0)
	for i := 0; i < 4; i++ {
		kv.Apply(EncodeKVSet(key16(i), val32(i)))
	}
	kv.Apply(EncodeKVSet(long, long))
	snap := kv.Snapshot()
	back := NewKV(0)
	back.Restore(snap)
	if !bytes.Equal(back.Snapshot(), snap) {
		t.Fatal("KV Snapshot -> Restore -> Snapshot differs")
	}
	for _, k := range back.evict.order {
		if unsafe.StringData(k) != unsafe.StringData(back.vs.chains[k].key) {
			t.Fatalf("restored eviction order holds its own copy of key %q", k)
		}
	}
}

// TestPairOrdersKeepNoViewOfTheRequest: an OpPair's legs are views of its
// request, so scribbling over each request once Apply or Fragment returns,
// on the ordered path, the parked path (a pair blocked by a staged
// transaction, run when it commits) and the fragment path (a pair split by
// Fragment, and one staged by a 2PC prepare and installed by its commit),
// changes no book, no top-of-book version and no byte of Snapshot: they
// equal those of a twin fed clean copies, across a garbage collection.
func TestPairOrdersKeepNoViewOfTheRequest(t *testing.T) {
	leg := func(sym string, side uint8, price, qty uint64) OrderLeg {
		return OrderLeg{Sym: []byte(sym), Side: side, Price: price, Qty: qty}
	}
	split := EncodePairOrder(leg("GGG", OpSell, 7, 2), leg("HHH", OpBuy, 9, 6))
	slots := []struct {
		req    []byte
		keyIdx []int // Fragment it first (one leg), and apply the fragment
	}{
		{req: EncodeOrderSym([]byte("AAA"), OpBuy, 10, 5)},
		{req: EncodePairOrder(leg("AAA", OpSell, 10, 3), leg("BBB", OpBuy, 20, 4))},
		{req: EncodeTxnPrepare(nil, 1, 0, EncodeOrderSym([]byte("CCC"), OpBuy, 5, 1))},
		{req: EncodePairOrder(leg("CCC", OpSell, 5, 3), leg("DDD", OpBuy, 8, 2))}, // parks
		{req: EncodeTxnCommit(nil, 1)},
		{req: EncodeTxnPrepare(nil, 2, 0, EncodePairOrder(leg("EEE", OpSell, 3, 2), leg("FFF", OpBuy, 4, 3)))},
		{req: EncodeTxnCommit(nil, 2)},
		{req: split, keyIdx: []int{1}},
		{req: bytes.Clone(split), keyIdx: []int{0}},
	}
	run := func(ob *OrderBook, clean bool) (answers [][]byte) {
		for i, s := range slots {
			ob.BeginSlot(uint64(i + 1))
			req := s.req
			if clean {
				req = bytes.Clone(req)
			}
			if s.keyIdx != nil {
				frag, err := ob.Fragment(nil, req, s.keyIdx)
				if err != nil {
					t.Fatalf("slot %d: Fragment: %v", i+1, err)
				}
				if !clean {
					scribble(req)
				}
				req = frag
			}
			answers = append(answers, bytes.Clone(ob.Apply(req)))
			if !clean {
				scribble(req)
			}
		}
		return answers
	}
	twin, ob := NewOrderBook(), NewOrderBook()
	want := run(twin, true)
	got := run(ob, false)
	runtime.GC()
	if ob.ParkedCount() != 0 || ob.StagedTxs() != 0 || twin.ParkedCount() != 0 {
		t.Fatalf("%d parked, %d staged: the parked pair did not run", ob.ParkedCount(), ob.StagedTxs())
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("slot %d answered %x, want %x", i+1, got[i], want[i])
		}
	}
	for _, sym := range []string{"AAA", "BBB", "CCC", "DDD", "EEE", "FFF", "GGG", "HHH"} {
		if ob.BidCountSym([]byte(sym))+ob.AskCountSym([]byte(sym)) == 0 {
			t.Fatalf("no order rests on %s: a leg did not reach its book", sym)
		}
	}
	sameStore(t, "top-of-book view", ob.tops, twin.tops, len(slots))
	if !bytes.Equal(ob.Snapshot(), twin.Snapshot()) {
		t.Fatal("Snapshot differs from an order book fed clean requests")
	}
}

// TestChainBlockFitsItsSizeClass pins the arithmetic behind chainBlock: a
// block of chains and the 8-byte header the allocator puts in front of an
// object that holds pointers fit the 4 KiB size class, and one more chain
// would not.
func TestChainBlockFitsItsSizeClass(t *testing.T) {
	const header, class = 8, 4096
	size := unsafe.Sizeof(chain{})
	if n := size*chainBlock + header; n > class {
		t.Fatalf("a block of %d chains is %d bytes with its header, over the %d B size class", chainBlock, n, class)
	}
	if n := size*(chainBlock+1) + header; n <= class {
		t.Fatalf("a block of %d chains would fit the %d B size class too: chainBlock wastes %d bytes", chainBlock+1, class, class-n)
	}
}

// TestEvictionFreesChainBlocks: a bounded store evicts in the order keys
// came, so the chains carved from one block leave together and the block
// goes with them. A NewKV(max) driven through ten times max new keys, its
// horizon ratcheted every 256 slots as stable checkpoints would, keeps its
// live heap flat after the first 2 x max.
func TestEvictionFreesChainBlocks(t *testing.T) {
	const bound, ratchetEvery = 4096, 256
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	kv := NewKV(bound)
	var base, peak uint64
	for i := 1; i <= 10*bound; i++ {
		kv.BeginSlot(uint64(i))
		kv.Apply(EncodeKVSet(key16(i), val32(i)))
		if i%ratchetEvery == 0 {
			kv.PruneVersions(uint64(i))
		}
		if i%bound != 0 || i < 2*bound {
			continue
		}
		h := live()
		if base == 0 {
			base = h
			continue
		}
		if h > base+base/5 {
			t.Fatalf("after %d new keys the live heap is %d B, %d B after %d: evicted chains' blocks are kept", i, h, base, 2*bound)
		}
		peak = max(peak, h)
	}
	if kv.Len() != bound {
		t.Fatalf("the store holds %d keys, want its bound %d", kv.Len(), bound)
	}
	t.Logf("live heap %d B after %d new keys, at most %d B after", base, 2*bound, peak)
}
