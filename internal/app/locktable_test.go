package app

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/wire"
)

// TestPrepareQueuesBehindParked is the wait-queue fairness regression: a
// prepare touching a key some request is already parked on must vote
// StatusConflict (queue behind it) instead of re-locking the key over the
// waiter's head. Before the fix, a multi-key waiter whose other key was
// still locked could be starved indefinitely by back-to-back transactions
// re-acquiring its freed key.
func TestPrepareQueuesBehindParked(t *testing.T) {
	r := NewRKV()
	k1, k2 := []byte("k1"), []byte("k2")

	// tx1 holds k1, tx2 holds k2.
	if st := r.Prepare(1, 0, EncodeRMSet(Pair{Key: k1, Val: []byte("a")})); st != StatusOK {
		t.Fatalf("prepare tx1: %d", st)
	}
	if st := r.Prepare(2, 0, EncodeRMSet(Pair{Key: k2, Val: []byte("b")})); st != StatusOK {
		t.Fatalf("prepare tx2: %d", st)
	}
	// A multi-key read over both keys parks (blocked on both locks).
	if res := r.Apply(EncodeRMGet(k1, k2)); res != nil {
		t.Fatalf("read over locked keys: %v, want parked (nil)", res)
	}
	if r.TakeParkedTicket() == 0 || r.ParkedCount() != 1 {
		t.Fatalf("reader not parked: %d parked", r.ParkedCount())
	}

	// tx1 commits: k1 frees, but the reader still waits on k2. An
	// adversarial stream of back-to-back transactions now hammers k1 —
	// every one of them must be refused while the reader waits, or the
	// reader starves.
	if st, _ := r.Commit(1); st != StatusOK {
		t.Fatalf("commit tx1: %d", st)
	}
	if r.ParkedCount() != 1 {
		t.Fatalf("reader drained early: %d parked", r.ParkedCount())
	}
	for txid := uint64(10); txid < 20; txid++ {
		if st := r.Prepare(txid, 0, EncodeRMSet(Pair{Key: k1, Val: []byte("steal")})); st != StatusConflict {
			t.Fatalf("tx%d jumped the parked reader on k1: vote %d, want StatusConflict", txid, st)
		}
	}
	if r.LockedKeys() != 1 { // only tx2's k2
		t.Fatalf("adversarial prepares leaked locks: %d held", r.LockedKeys())
	}

	// tx2 commits: both keys free, the reader finally drains — with tx1's
	// and tx2's values, untouched by any of the refused transactions.
	if st, _ := r.Commit(2); st != StatusOK {
		t.Fatalf("commit tx2: %d", st)
	}
	rel := r.TakeReleased()
	if len(rel) != 1 {
		t.Fatalf("released %d, want 1", len(rel))
	}
	if !bytes.Equal(rel[0].Req, EncodeRMGet(k1, k2)) {
		t.Fatalf("release carries wrong request bytes: %v", rel[0].Req)
	}
	want := r.Apply(EncodeRMGet(k1, k2))
	if !bytes.Equal(rel[0].Result, want) {
		t.Fatalf("parked read result %v != current state %v", rel[0].Result, want)
	}
	vals, ok := decodeVals(rel[0].Result)
	if !ok || vals[0] != "a" || vals[1] != "b" {
		t.Fatalf("parked read saw %v, want [a b]", vals)
	}

	// With the queue empty, a prepare on k1 succeeds again (the fairness
	// rule only defers prepares while someone is actually waiting).
	if st := r.Prepare(30, 0, EncodeRMSet(Pair{Key: k1, Val: []byte("c")})); st != StatusOK {
		t.Fatalf("prepare after drain: %d", st)
	}
}

// TestPrepareFairnessSingleKey: the single-key variant — a parked
// single-key write must drain before any later transaction can re-lock its
// key.
func TestPrepareFairnessSingleKey(t *testing.T) {
	kv := NewKV(0)
	k := []byte("hot")
	if st := kv.Prepare(1, 0, EncodeKVMSet(Pair{Key: k, Val: []byte("tx1")})); st != StatusOK {
		t.Fatalf("prepare tx1: %d", st)
	}
	if res := kv.Apply(EncodeKVSet(k, []byte("parked"))); res != nil {
		t.Fatalf("write to locked key: %v, want parked", res)
	}
	kv.TakeParkedTicket()
	// While the write waits, a conflicting prepare for the same key is
	// refused even though tx1 still holds the lock (both rules agree), and
	// — the regression — still refused in the same command stream after
	// tx1 releases but before the waiter drains is impossible by
	// construction: Commit drains atomically. The observable contract is
	// the parked write wins before any tx that prepared after it.
	if st, _ := kv.Commit(1); st != StatusOK {
		t.Fatal("commit tx1")
	}
	rel := kv.TakeReleased()
	if len(rel) != 1 || len(rel[0].Result) != 1 || rel[0].Result[0] != KVStored {
		t.Fatalf("parked write did not drain at release: %+v", rel)
	}
	// The parked write executed AFTER tx1's install, so its value wins.
	w := wire.NewWriter(16)
	w.U8(KVOK)
	w.Bytes([]byte("parked"))
	if res := kv.Apply(EncodeKVGet(k)); !bytes.Equal(res, w.Finish()) {
		t.Fatalf("final value response %v, want the parked write's", res)
	}
}

// TestReleasedResultsAreTheirOwn: the parked requests a commit releases run
// through the application's Apply, which answers into the one buffer it
// keeps, and so does the commit itself. Each released result must still be
// the answer a fresh store gives the same history, and the commit its own
// receipt: the LockTable copies every result out of that buffer at once.
func TestReleasedResultsAreTheirOwn(t *testing.T) {
	sym := []byte("A")
	cases := []struct {
		name   string
		mk     func() StateMachine
		frag   []byte   // the transaction's write, applied directly by the twin
		parked [][]byte // two writes that park behind it
	}{
		{"rkv", func() StateMachine { return NewRKV() },
			EncodeRMSet(Pair{Key: sym, Val: []byte("10")}),
			[][]byte{EncodeRIncr(sym), EncodeRIncr(sym)}},
		{"orderbook", func() StateMachine { return NewOrderBook() },
			EncodePairOrder(OrderLeg{Sym: sym, Side: OpSell, Price: 100, Qty: 5}, OrderLeg{Sym: []byte("B"), Side: OpBuy, Price: 7, Qty: 1}),
			[][]byte{EncodeOrderSym(sym, OpBuy, 100, 2), EncodeOrderSym(sym, OpBuy, 100, 3)}},
	}
	for _, tc := range cases {
		sm, twin := tc.mk(), tc.mk()
		if res := sm.Apply(EncodeTxnPrepare(nil, 1, 0, tc.frag)); len(res) != 1 || res[0] != StatusOK {
			t.Fatalf("%s: prepare answered %v", tc.name, res)
		}
		for _, req := range tc.parked {
			if res := sm.Apply(req); res != nil {
				t.Fatalf("%s: write to a locked key answered %v, want parked", tc.name, res)
			}
			sm.(Deferring).TakeParkedTicket()
		}
		// The twin never parks: the transaction's write, then the two writes.
		// A pair order answers StatusOK then its legs, which is the order
		// book's receipt; a multi-key SET answers StatusOK and has none.
		receipt := bytes.Clone(twin.Apply(tc.frag))
		if len(receipt) == 1 {
			receipt = nil
		}
		var want [][]byte
		for _, req := range tc.parked {
			want = append(want, bytes.Clone(twin.Apply(req)))
		}
		commit := sm.Apply(EncodeTxnCommit(nil, 1))
		if commit[0] != StatusOK || !bytes.Equal(commit[1:], receipt) {
			t.Fatalf("%s: commit answered %v, want StatusOK then the receipt %v", tc.name, commit, receipt)
		}
		rel := sm.(Deferring).TakeReleased()
		if len(rel) != len(want) {
			t.Fatalf("%s: %d released, want %d", tc.name, len(rel), len(want))
		}
		for i, r := range rel {
			if !bytes.Equal(r.Result, want[i]) {
				t.Fatalf("%s: released result %d is %v, a fresh store answers %v", tc.name, i, r.Result, want[i])
			}
		}
	}
}

// TestCommitReceiptIdempotent: a commit re-delivered after it applied
// (lost first ack, client retry under loss) must re-answer with the SAME
// receipt, not a bare StatusOK — otherwise the transaction driver's
// per-leg fill summaries silently vanish under retransmission. The cache
// must also survive Snapshot/Restore.
func TestCommitReceiptIdempotent(t *testing.T) {
	ob := NewOrderBook()
	frag := EncodeOrderSym([]byte("SYM"), OpBuy, 100, 2)
	if st := ob.Prepare(1, 0, frag); st != StatusOK {
		t.Fatalf("prepare: %d", st)
	}
	st, receipt := ob.Commit(1)
	if st != StatusOK || len(receipt) == 0 {
		t.Fatalf("commit: status=%d receipt=%v", st, receipt)
	}
	st2, again := ob.Commit(1)
	if st2 != StatusOK || !bytes.Equal(again, receipt) {
		t.Fatalf("re-commit receipt %v != first %v", again, receipt)
	}

	ob2 := NewOrderBook()
	ob2.Restore(ob.Snapshot())
	if _, restored := ob2.Commit(1); !bytes.Equal(restored, receipt) {
		t.Fatalf("receipt lost across restore: %v != %v", restored, receipt)
	}
	if !bytes.Equal(ob2.Snapshot(), ob.Snapshot()) {
		t.Fatal("snapshot round trip not identical")
	}
}

// decodeVals unpacks a 2-key keyed-read response body.
func decodeVals(res []byte) ([2]string, bool) {
	var out [2]string
	if len(res) == 0 || res[0] != StatusOK {
		return out, false
	}
	rd := wire.NewReader(res)
	rd.U8()
	if rd.Uvarint() != 2 {
		return out, false
	}
	for i := range out {
		if rd.Bool() {
			out[i] = string(rd.Bytes())
		} else {
			out[i] = "<miss>"
		}
	}
	return out, rd.Done() == nil
}

// TestOrderFragmentKeysAllocateNothing: the symbols a prepare locks are
// views of the staged fragment in the order book's key scratch, for a
// single leg (OpOrderSym, what each shard of a split pair stages) and for a
// whole pair. A copy of the symbol or a fresh key slice per prepare (2.00
// and 1.00 allocations) trips it.
func TestOrderFragmentKeysAllocateNothing(t *testing.T) {
	ob := NewOrderBook()
	for _, c := range []struct {
		name string
		frag []byte
		want []string
	}{
		{"OpOrderSym", EncodeOrderSym([]byte("AAA"), OpBuy, 10, 5), []string{"AAA"}},
		{"OpPair", EncodePairOrder(
			OrderLeg{Sym: []byte("BBB"), Side: OpSell, Price: 7, Qty: 2},
			OrderLeg{Sym: []byte("CCC"), Side: OpBuy, Price: 9, Qty: 6}), []string{"BBB", "CCC"}},
	} {
		keys, err := ob.writeFragmentKeys(c.frag)
		if err != nil || len(keys) != len(c.want) {
			t.Fatalf("%s: keys %q, %v", c.name, keys, err)
		}
		for i, k := range keys {
			if string(k) != c.want[i] {
				t.Fatalf("%s: keys %q, want %q", c.name, keys, c.want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { ob.writeFragmentKeys(c.frag) }); n != 0 {
			t.Errorf("%s: %.2f allocations per writeFragmentKeys, want 0", c.name, n)
		}
	}
}

// TestLockKeysViewTheStagedFragment: a lock's key is a view of the staged
// fragment, whose buffer the next Prepare reuses once Commit or Abort has
// released it. Through a Prepare, its Commit, a Prepare of other keys in the
// reused buffer and a conflicting Prepare, Locked answers for exactly the
// keys each step holds, the conflicting Prepare leaves nothing of its own
// locked, and SnapshotTo, of this table and of one restored from it, equals
// that of a fresh table fed the same calls on copies the caller scribbles
// over, not the table's own.
func TestLockKeysViewTheStagedFragment(t *testing.T) {
	frag := func(keys ...string) []byte {
		pairs := make([]Pair, len(keys))
		for i, k := range keys {
			pairs[i] = Pair{Key: []byte(k), Val: []byte("v-" + k)}
		}
		return EncodeRMSet(pairs...)
	}
	all := []string{"alpha-is-longer", "beta", "gamma", "delta", "epsilon"}
	steps := []struct {
		name   string
		run    func(r *RKV, scribbled bool) uint8
		locked []string
	}{
		{"prepare 1", func(r *RKV, s bool) uint8 { return prepareScribbled(r, 1, frag("alpha-is-longer", "beta"), s) }, []string{"alpha-is-longer", "beta"}},
		{"commit 1", func(r *RKV, _ bool) uint8 { st, _ := r.Commit(1); return st }, nil},
		{"prepare 2", func(r *RKV, s bool) uint8 { return prepareScribbled(r, 2, frag("gamma", "delta"), s) }, []string{"gamma", "delta"}},
		{"conflicting prepare 3", func(r *RKV, s bool) uint8 {
			if st := prepareScribbled(r, 3, frag("epsilon", "gamma"), s); st != StatusConflict {
				return st
			}
			return StatusOK
		}, []string{"gamma", "delta"}},
	}
	r, fresh := NewRKV(), NewRKV()
	var buf []byte
	for _, step := range steps {
		if st := step.run(r, true); st != StatusOK {
			t.Fatalf("%s: status %d", step.name, st)
		}
		step.run(fresh, false)
		for _, k := range all {
			if got, want := r.Locked([]byte(k)), slices.Contains(step.locked, k); got != want {
				t.Fatalf("%s: Locked(%q) = %v, want %v", step.name, k, got, want)
			}
		}
		if r.LockedKeys() != len(step.locked) {
			t.Fatalf("%s: %d keys locked, want %d", step.name, r.LockedKeys(), len(step.locked))
		}
		if tx := r.staged[1]; tx != nil {
			buf = tx.frag
		}
		if !bytes.Equal(lockTableSnapshot(r.LockTable), lockTableSnapshot(fresh.LockTable)) {
			t.Fatalf("%s: SnapshotTo differs from a fresh table's", step.name)
		}
	}
	if tx := r.staged[2]; unsafe.SliceData(tx.frag) != unsafe.SliceData(buf) {
		t.Fatal("prepare 2 did not reuse the buffer prepare 1 staged in: the test shows nothing")
	}

	restored := NewRKV()
	restored.Restore(r.Snapshot())
	if !bytes.Equal(lockTableSnapshot(restored.LockTable), lockTableSnapshot(fresh.LockTable)) {
		t.Fatal("a restored table's SnapshotTo differs")
	}
	for _, table := range []*RKV{r, restored} {
		tx := table.staged[2]
		start := uintptr(unsafe.Pointer(unsafe.SliceData(tx.frag)))
		for _, k := range tx.keys {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p < start || p >= start+uintptr(len(tx.frag)) {
				t.Fatalf("lock key %q is not a view of its staged fragment", k)
			}
		}
		if !table.Locked([]byte("gamma")) || table.Locked([]byte("alpha-is-longer")) {
			t.Fatal("a restored table locks other keys")
		}
	}
}

// prepareScribbled stages frag under txid and, when scribbled is set,
// overwrites the caller's frag once Prepare returns.
func prepareScribbled(r *RKV, txid uint64, frag []byte, scribbled bool) uint8 {
	st := r.Prepare(txid, 0, frag)
	if scribbled {
		scribble(frag)
	}
	return st
}

func lockTableSnapshot(lt *LockTable) []byte {
	w := wire.NewWriter(256)
	lt.SnapshotTo(w)
	return w.Finish()
}

// TestDecisionLogKeepsOneArray: the decision log and the receipt cache
// evict their oldest txid in place once they hold decisionCap, so neither
// reallocates its array however many decisions follow, and SnapshotTo
// writes them oldest first, as a restored table does.
func TestDecisionLogKeepsOneArray(t *testing.T) {
	lt := NewLockTable(nil, nil, nil)
	decide := func(from, to uint64) {
		for id := from; id <= to; id++ {
			lt.Decided(id, id%3 == 0)
			lt.rememberReceipt(id, []byte{byte(id)})
		}
	}
	decide(1, decisionCap)
	decisions, receipts := unsafe.SliceData(lt.decisionOrder.ids), unsafe.SliceData(lt.receiptOrder.ids)
	const last = 3*decisionCap + 7
	decide(decisionCap+1, last)
	if unsafe.SliceData(lt.decisionOrder.ids) != decisions || unsafe.SliceData(lt.receiptOrder.ids) != receipts {
		t.Fatal("a full log reallocated its array")
	}
	if len(lt.decisions) != decisionCap || len(lt.receipts) != decisionCap {
		t.Fatalf("%d decisions and %d receipts kept, want %d each", len(lt.decisions), len(lt.receipts), decisionCap)
	}

	snap := lockTableSnapshot(lt)
	rd := wire.NewReader(snap)
	if rd.Uvarint() != 0 {
		t.Fatal("staged transactions in the snapshot")
	}
	if n := rd.Uvarint(); n != decisionCap {
		t.Fatalf("snapshot holds %d decisions", n)
	}
	for id := uint64(last - decisionCap + 1); id <= last; id++ {
		if got, commit := rd.U64(), rd.Bool(); got != id || commit != (id%3 == 0) {
			t.Fatalf("snapshot decision %d, %v, want %d oldest first", got, commit, id)
		}
	}
	rd.Uvarint() // the wait queue
	rd.U64()     // its ticket counter
	if n := rd.Uvarint(); n != decisionCap {
		t.Fatalf("snapshot holds %d receipts", n)
	}
	for id := uint64(last - decisionCap + 1); id <= last; id++ {
		if got, r := rd.U64(), rd.Bytes(); got != id || !bytes.Equal(r, []byte{byte(id)}) {
			t.Fatalf("snapshot receipt %d, %v, want %d oldest first", got, r, id)
		}
	}
	if err := rd.Done(); err != nil {
		t.Fatal(err)
	}

	back := NewLockTable(nil, nil, nil)
	back.RestoreFrom(wire.NewReader(snap))
	if !bytes.Equal(lockTableSnapshot(back), snap) {
		t.Fatal("Snapshot -> Restore -> Snapshot differs")
	}
	// Both go on evicting the same oldest txid.
	lt.Decided(last+1, true)
	back.Decided(last+1, true)
	if _, kept := back.Decision(last - decisionCap + 1); kept || !bytes.Equal(lockTableSnapshot(back), lockTableSnapshot(lt)) {
		t.Fatal("a restored log evicts another txid than the one it was restored from")
	}
}
