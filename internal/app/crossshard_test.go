package app

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// lockTabler is the embedded-LockTable surface every transactional app
// promotes.
type lockTabler interface {
	LockedKeys() int
	StagedTxs() int
	ParkedCount() int
	Decision(txid uint64) (bool, bool)
	TakeReleased() []Release
}

// txnApp adapts one application to the generic transaction tests: the
// same scenarios drive RKV, KV and OrderBook through the capability
// interfaces only.
type txnApp struct {
	name string
	mk   func() StateMachine
	// writeFrag builds a two-key write fragment over keys a and b, tagged
	// so its effect is distinguishable.
	writeFrag func(a, b []byte, tag byte) []byte
	// singleWrite builds a single-key write to k.
	singleWrite func(k []byte, tag byte) []byte
	// multiRead builds a multi-key read over a and b.
	multiRead func(a, b []byte) []byte
	// visible reports whether tag's write to k took effect.
	visible func(sm StateMachine, k []byte, tag byte) bool
	// wrote reports whether a response acknowledges a successful single
	// write.
	wrote func(res []byte) bool
}

func txnApps() []txnApp {
	rkvVal := func(tag byte) []byte { return []byte{'v', tag} }
	return []txnApp{
		{
			name: "rkv",
			mk:   func() StateMachine { return NewRKV() },
			writeFrag: func(a, b []byte, tag byte) []byte {
				return EncodeRMSet(Pair{Key: a, Val: rkvVal(tag)}, Pair{Key: b, Val: rkvVal(tag)})
			},
			singleWrite: func(k []byte, tag byte) []byte { return EncodeRSet(k, rkvVal(tag)) },
			multiRead:   func(a, b []byte) []byte { return EncodeRMGet(a, b) },
			visible: func(sm StateMachine, k []byte, tag byte) bool {
				res := sm.Apply(EncodeRGet(k))
				return len(res) > 2 && res[0] == ROK && bytes.Equal(res[2:], rkvVal(tag))
			},
			wrote: func(res []byte) bool { return len(res) == 1 && res[0] == ROK },
		},
		{
			name: "kv",
			mk:   func() StateMachine { return NewKV(0) },
			writeFrag: func(a, b []byte, tag byte) []byte {
				return EncodeKVMSet(Pair{Key: a, Val: rkvVal(tag)}, Pair{Key: b, Val: rkvVal(tag)})
			},
			singleWrite: func(k []byte, tag byte) []byte { return EncodeKVSet(k, rkvVal(tag)) },
			multiRead:   func(a, b []byte) []byte { return EncodeKVMGet(a, b) },
			visible: func(sm StateMachine, k []byte, tag byte) bool {
				res := sm.Apply(EncodeKVGet(k))
				return len(res) > 2 && res[0] == KVOK && bytes.Equal(res[2:], rkvVal(tag))
			},
			wrote: func(res []byte) bool { return len(res) == 1 && res[0] == KVStored },
		},
		{
			name: "orderbook",
			mk:   func() StateMachine { return NewOrderBook() },
			writeFrag: func(a, b []byte, tag byte) []byte {
				return EncodePairOrder(
					OrderLeg{Sym: a, Side: OpBuy, Price: 10 + uint64(tag), Qty: 1},
					OrderLeg{Sym: b, Side: OpBuy, Price: 10 + uint64(tag), Qty: 1},
				)
			},
			singleWrite: func(k []byte, tag byte) []byte {
				return EncodeOrderSym(k, OpBuy, 10+uint64(tag), 1)
			},
			multiRead: func(a, b []byte) []byte { return EncodeTops(a, b) },
			visible: func(sm StateMachine, k []byte, tag byte) bool {
				// The tagged buy is visible when the symbol's best bid is
				// at (or above, if several writes landed) the tag price.
				// Inspect the book directly: a Tops request over a locked
				// symbol would itself park.
				b := sm.(*OrderBook).books[string(k)]
				return b != nil && len(b.bids) > 0 && b.bids[0].Price >= 10+uint64(tag)
			},
			wrote: func(res []byte) bool { return len(res) > 0 && res[0] == 1 },
		},
	}
}

// TestTxnParticipantGeneric drives the 2PC participant state machine of
// every transactional app through the generic OpTxn* envelope alone:
// prepare locks and stages, conflicts are refused, blocked requests park
// and resume at commit, commit installs atomically, aborts tombstone, and
// every phase-2 command is idempotent.
func TestTxnParticipantGeneric(t *testing.T) {
	for _, ta := range txnApps() {
		t.Run(ta.name, func(t *testing.T) {
			sm := ta.mk()
			lt := sm.(lockTabler)
			a, b, c := []byte("ka"), []byte("kb"), []byte("kc")

			if res := sm.Apply(EncodeTxnPrepare(nil, 1, 0, ta.writeFrag(a, b, '1'))); len(res) != 1 || res[0] != StatusOK {
				t.Fatalf("prepare tx1: %v", res)
			}
			if lt.LockedKeys() != 2 || lt.StagedTxs() != 1 {
				t.Fatalf("after prepare: %d locks, %d staged", lt.LockedKeys(), lt.StagedTxs())
			}
			// Staged writes are invisible until commit.
			if ta.visible(sm, a, '1') {
				t.Fatal("staged write visible before commit")
			}
			// A conflicting prepare votes no and locks nothing new.
			if res := sm.Apply(EncodeTxnPrepare(nil, 2, 0, ta.writeFrag(c, b, '2'))); res[0] != StatusConflict {
				t.Fatalf("conflicting prepare: %v, want StatusConflict", res)
			}
			if lt.LockedKeys() != 2 {
				t.Fatalf("conflicting prepare leaked locks: %d", lt.LockedKeys())
			}
			// Re-delivered prepare for the same txid re-votes yes.
			if res := sm.Apply(EncodeTxnPrepare(nil, 1, 0, ta.writeFrag(a, b, '1'))); res[0] != StatusOK {
				t.Fatalf("re-prepare tx1: %v", res)
			}

			// A single-key write to a locked key parks (nil response, FIFO
			// wait queue) instead of bouncing.
			if res := sm.Apply(ta.singleWrite(a, '9')); res != nil {
				t.Fatalf("write to locked key: %v, want parked (nil)", res)
			}
			d := sm.(Deferring)
			t1 := d.TakeParkedTicket()
			if t1 == 0 || lt.ParkedCount() != 1 {
				t.Fatalf("park: ticket=%d parked=%d", t1, lt.ParkedCount())
			}
			// A multi-key read over a locked key parks too.
			if res := sm.Apply(ta.multiRead(a, b)); res != nil {
				t.Fatalf("read over locked key: %v, want parked (nil)", res)
			}
			t2 := d.TakeParkedTicket()
			if t2 <= t1 || lt.ParkedCount() != 2 {
				t.Fatalf("park tickets not FIFO: %d then %d (parked=%d)", t1, t2, lt.ParkedCount())
			}

			// Commit installs the staged fragment, releases the locks and
			// drains the wait queue in ticket order.
			if res := sm.Apply(EncodeTxnCommit(nil, 1)); res[0] != StatusOK {
				t.Fatalf("commit tx1: %v", res)
			}
			if lt.LockedKeys() != 0 || lt.StagedTxs() != 0 || lt.ParkedCount() != 0 {
				t.Fatalf("after commit: %d locks, %d staged, %d parked", lt.LockedKeys(), lt.StagedTxs(), lt.ParkedCount())
			}
			rel := lt.TakeReleased()
			if len(rel) != 2 || rel[0].Ticket != t1 || rel[1].Ticket != t2 {
				t.Fatalf("released = %+v, want tickets [%d %d]", rel, t1, t2)
			}
			if !ta.wrote(rel[0].Result) {
				t.Fatalf("parked write result: %v", rel[0].Result)
			}
			// The committed write is visible on both keys; the parked write
			// (ordered at release) took effect on key a.
			if !ta.visible(sm, b, '1') {
				t.Fatal("committed write lost on b")
			}
			if !ta.visible(sm, a, '9') {
				t.Fatal("parked write did not execute at release")
			}
			// Commit and abort are idempotent for unknown txids.
			if res := sm.Apply(EncodeTxnCommit(nil, 1)); res[0] != StatusOK {
				t.Fatalf("re-commit: %v", res)
			}
			if res := sm.Apply(EncodeTxnAbort(nil, 3)); res[0] != StatusOK {
				t.Fatalf("abort unknown: %v", res)
			}
			// The abort tombstone refuses a prepare ordered after its own
			// abort — the late-prepare race that would otherwise strand the
			// locks forever.
			if res := sm.Apply(EncodeTxnPrepare(nil, 3, 0, ta.writeFrag(a, b, '3'))); res[0] != StatusConflict {
				t.Fatalf("prepare after abort: %v, want StatusConflict (tombstoned)", res)
			}
			if lt.LockedKeys() != 0 {
				t.Fatalf("tombstoned prepare leaked %d locks", lt.LockedKeys())
			}

			// Abort path: stage then abort leaves no trace.
			if res := sm.Apply(EncodeTxnPrepare(nil, 4, 0, ta.writeFrag(c, b, '4'))); res[0] != StatusOK {
				t.Fatalf("prepare tx4: %v", res)
			}
			if res := sm.Apply(EncodeTxnAbort(nil, 4)); res[0] != StatusOK {
				t.Fatalf("abort tx4: %v", res)
			}
			if ta.visible(sm, c, '4') {
				t.Fatal("aborted write visible")
			}
			// The coordinator decision record is durable and first-write-wins.
			if res := sm.Apply(EncodeTxnDecide(nil, 7, true)); res[0] != StatusOK {
				t.Fatalf("decide: %v", res)
			}
			sm.Apply(EncodeTxnDecide(nil, 7, false))
			if commit, ok := lt.Decision(7); !ok || !commit {
				t.Fatalf("decision record: commit=%v ok=%v (first write must win)", commit, ok)
			}
			// Malformed envelope commands are refused.
			if res := sm.Apply([]byte{OpTxnPrepare, 1}); len(res) != 1 || res[0] != StatusBadReq {
				t.Fatalf("truncated prepare: %v", res)
			}
		})
	}
}

// TestLockTableSnapshotRoundTrip: in-flight transaction state — locks,
// staged fragments, decision log AND parked wait-queue entries — must
// survive Snapshot/Restore on every transactional app, deterministically.
func TestLockTableSnapshotRoundTrip(t *testing.T) {
	for _, ta := range txnApps() {
		t.Run(ta.name, func(t *testing.T) {
			sm := ta.mk()
			a, b := []byte("xa"), []byte("xb")
			if res := sm.Apply(EncodeTxnPrepare(nil, 7, 0, ta.writeFrag(a, b, '1'))); res[0] != StatusOK {
				t.Fatalf("prepare: %v", res)
			}
			if res := sm.Apply(ta.singleWrite(a, '9')); res != nil {
				t.Fatalf("parked write: %v", res)
			}
			sm.(Deferring).TakeParkedTicket()
			sm.Apply(EncodeTxnDecide(nil, 5, true))

			snap := sm.Snapshot()
			if !bytes.Equal(snap, sm.Snapshot()) {
				t.Fatal("snapshot not deterministic")
			}
			sm2 := ta.mk()
			sm2.Restore(snap)
			lt2 := sm2.(lockTabler)
			if lt2.LockedKeys() != 2 || lt2.StagedTxs() != 1 || lt2.ParkedCount() != 1 {
				t.Fatalf("restored: %d locks, %d staged, %d parked", lt2.LockedKeys(), lt2.StagedTxs(), lt2.ParkedCount())
			}
			if commit, ok := lt2.Decision(5); !ok || !commit {
				t.Fatalf("restored decision: commit=%v ok=%v", commit, ok)
			}
			if !bytes.Equal(sm2.Snapshot(), snap) {
				t.Fatal("snapshot round trip not identical")
			}
			// Restored locks are enforced: another write to the same key
			// parks on the restored instance too (FIFO after the restored
			// entry).
			if res := sm2.Apply(ta.singleWrite(a, '8')); res != nil {
				t.Fatalf("restored lock not enforced: %v", res)
			}
			// Committing on the restored replica installs the staged
			// fragment and drains the restored wait queue in ticket order.
			if res := sm2.Apply(EncodeTxnCommit(nil, 7)); res[0] != StatusOK {
				t.Fatalf("commit on restored: %v", res)
			}
			if !ta.visible(sm2, b, '1') {
				t.Fatal("staged write lost across restore")
			}
			if !ta.visible(sm2, a, '8') {
				t.Fatal("restored parked writes did not execute at release")
			}
			if rel := lt2.TakeReleased(); len(rel) != 2 {
				t.Fatalf("released %d parked requests after restore, want 2", len(rel))
			}
		})
	}
}

// TestTxnListStaged: the recovery sweep's command, on every transactional
// app through the envelope alone — an empty list, ascending txids with the
// coordinator each prepare named (the latest copy's, for a re-delivered
// prepare), the stamp carried through Snapshot/Restore, resolved
// transactions gone from the list, and a malformed command refused.
func TestTxnListStaged(t *testing.T) {
	for _, ta := range txnApps() {
		t.Run(ta.name, func(t *testing.T) {
			sm := ta.mk()
			list := func(sm StateMachine) []StagedTxn {
				t.Helper()
				staged, ok := DecodeTxnListStaged(sm.Apply(EncodeTxnListStaged(nil)))
				if !ok {
					t.Fatal("OpTxnListStaged answer does not decode")
				}
				return staged
			}
			if got := list(sm); len(got) != 0 {
				t.Fatalf("fresh store lists %v", got)
			}
			// Prepared out of txid order, on disjoint keys, with distinct
			// coordinators; 9 is delivered twice.
			for _, p := range []StagedTxn{{9, 2}, {3, 1}, {5, 0}, {9, 4}} {
				k := []byte(fmt.Sprintf("k%d", p.Txid))
				if res := sm.Apply(EncodeTxnPrepare(nil, p.Txid, p.Coord, ta.writeFrag(k, append(k, 'b'), '1'))); res[0] != StatusOK {
					t.Fatalf("prepare %d: %v", p.Txid, res)
				}
			}
			want := []StagedTxn{{3, 1}, {5, 0}, {9, 4}}
			if got := list(sm); !slices.Equal(got, want) {
				t.Fatalf("listed %v, want %v", got, want)
			}
			restored := ta.mk()
			restored.Restore(sm.Snapshot())
			if got := list(restored); !slices.Equal(got, want) {
				t.Fatalf("restored store lists %v, want %v", got, want)
			}
			sm.Apply(EncodeTxnCommit(nil, 3))
			sm.Apply(EncodeTxnAbort(nil, 9))
			if got := list(sm); !slices.Equal(got, want[1:2]) {
				t.Fatalf("after resolving 3 and 9 listed %v, want %v", got, want[1:2])
			}
			if res := sm.Apply(append(EncodeTxnListStaged(nil), 0)); len(res) != 1 || res[0] != StatusBadReq {
				t.Fatalf("trailing byte answered %v, want StatusBadReq", res)
			}
		})
	}
}

// TestTxnListStagedCap: a group holding more staged transactions than one
// answer carries lists the lowest txids, and the rest once those resolved.
func TestTxnListStagedCap(t *testing.T) {
	r := NewRKV()
	const n = stagedListCap + 10
	for id := uint64(n); id >= 1; id-- {
		k := []byte(fmt.Sprintf("k%d", id))
		if res := r.Apply(EncodeTxnPrepare(nil, id, 0, EncodeRMSet(Pair{Key: k, Val: k}))); res[0] != StatusOK {
			t.Fatalf("prepare %d: %v", id, res)
		}
	}
	staged, ok := DecodeTxnListStaged(r.Apply(EncodeTxnListStaged(nil)))
	if !ok || len(staged) != stagedListCap || staged[0].Txid != 1 || staged[stagedListCap-1].Txid != stagedListCap {
		t.Fatalf("listed %d (ok=%v), want txids 1..%d", len(staged), ok, stagedListCap)
	}
	for _, tx := range staged {
		r.Apply(EncodeTxnAbort(nil, tx.Txid))
	}
	staged, ok = DecodeTxnListStaged(r.Apply(EncodeTxnListStaged(nil)))
	if !ok || len(staged) != n-stagedListCap || staged[0].Txid != stagedListCap+1 {
		t.Fatalf("second list: %d entries (ok=%v), want the remaining %d", len(staged), ok, n-stagedListCap)
	}
	// The decoder holds answers to the same cap: a count above it is not a
	// list, whatever follows.
	if _, ok := DecodeTxnListStaged([]byte{StatusOK, 0x81, 0x02}); ok {
		t.Fatal("decoded a list longer than the cap")
	}
}

// TestPrepareValidatesFragments: a raw prepare (bypassing Fragment)
// carrying a half-invalid fragment must vote StatusBadReq and stage
// nothing — prepare-side validation must match install-side validation,
// or a transaction could commit while installing nothing (or only one
// leg) on a shard. Covers invalid order legs and trailing bytes on every
// app's write fragment.
func TestPrepareValidatesFragments(t *testing.T) {
	pair := []Pair{{Key: []byte("a"), Val: []byte("v")}}
	cases := []struct {
		name string
		sm   StateMachine
		frag []byte
	}{
		{"ob-zero-qty", NewOrderBook(), EncodePairOrder(
			OrderLeg{Sym: []byte("A"), Side: OpBuy, Price: 100, Qty: 1},
			OrderLeg{Sym: []byte("B"), Side: OpBuy, Price: 100, Qty: 0})},
		{"ob-bad-side", NewOrderBook(), EncodeOrderSym([]byte("A"), 9, 100, 1)},
		{"ob-trailing", NewOrderBook(), append(EncodeOrderSym([]byte("A"), OpBuy, 100, 1), 0xFF)},
		{"kv-trailing", NewKV(0), append(EncodeKVMSet(pair...), 0xFF)},
		{"rkv-trailing", NewRKV(), append(EncodeRMSet(pair...), 0xFF)},
		{"kv-wrong-op", NewKV(0), EncodeKVGet([]byte("a"))},
		{"rkv-wrong-op", NewRKV(), EncodeRGet([]byte("a"))},
	}
	for _, tc := range cases {
		lt := tc.sm.(lockTabler)
		if res := tc.sm.Apply(EncodeTxnPrepare(nil, 1, 0, tc.frag)); len(res) != 1 || res[0] != StatusBadReq {
			t.Errorf("%s: prepare = %v, want StatusBadReq", tc.name, res)
		}
		if lt.LockedKeys() != 0 || lt.StagedTxs() != 0 {
			t.Errorf("%s: invalid prepare staged state: %d locks, %d staged", tc.name, lt.LockedKeys(), lt.StagedTxs())
		}
	}
}

// TestLockTableDecisionLogBounded: the decision/tombstone log evicts FIFO
// at its cap, so an arbitrarily long run cannot grow it without bound.
func TestLockTableDecisionLogBounded(t *testing.T) {
	r := NewRKV()
	for i := 0; i < decisionCap+10; i++ {
		if res := r.Apply(EncodeTxnDecide(nil, uint64(i), i%2 == 0)); res[0] != StatusOK {
			t.Fatalf("decide %d: %v", i, res)
		}
	}
	if n := len(r.LockTable.decisions); n != decisionCap {
		t.Fatalf("decision log holds %d entries, cap is %d", n, decisionCap)
	}
	if _, ok := r.Decision(0); ok {
		t.Fatal("oldest decision not evicted")
	}
	if commit, ok := r.Decision(decisionCap + 9); !ok || commit != ((decisionCap+9)%2 == 0) {
		t.Fatalf("newest decision wrong: commit=%v ok=%v", commit, ok)
	}
}

// TestLockTableParkedCap: a full wait queue refuses further parks (the
// caller falls back to StatusLocked + retry) instead of growing unbounded.
func TestLockTableParkedCap(t *testing.T) {
	r := NewRKV()
	if res := r.Apply(EncodeTxnPrepare(nil, 1, 0, EncodeRMSet(Pair{Key: []byte("k"), Val: []byte("v")}))); res[0] != StatusOK {
		t.Fatalf("prepare: %v", res)
	}
	for i := 0; i < parkedCap; i++ {
		if res := r.Apply(EncodeRSet([]byte("k"), []byte{byte(i)})); res != nil {
			t.Fatalf("park %d refused early: %v", i, res)
		}
	}
	if res := r.Apply(EncodeRSet([]byte("k"), []byte("over"))); len(res) != 1 || res[0] != StatusLocked {
		t.Fatalf("park beyond cap: %v, want StatusLocked", res)
	}
	if r.ParkedCount() != parkedCap {
		t.Fatalf("parked %d, want cap %d", r.ParkedCount(), parkedCap)
	}
}

// fragPlan mirrors the shard layer's fan-out planning for the app-level
// fragment/merge tests.
func fragPlan(keys [][]byte, shards int) (legShards []int, legKeys [][]int) {
	perShard := make(map[int][]int)
	for i, k := range keys {
		s := ShardOfKey(k, shards)
		perShard[s] = append(perShard[s], i)
	}
	for s := 0; s < shards; s++ {
		if idx, ok := perShard[s]; ok {
			legShards = append(legShards, s)
			legKeys = append(legKeys, idx)
		}
	}
	return legShards, legKeys
}

// TestFragmentMergeReads: fragmenting a multi-key read across shards and
// merging the per-leg responses must reproduce, byte for byte, what one
// instance holding every key would answer — for every app, key order and
// miss pattern tried.
func TestFragmentMergeReads(t *testing.T) {
	const shards = 4
	for _, ta := range txnApps() {
		t.Run(ta.name, func(t *testing.T) {
			ref := ta.mk()
			parts := make([]StateMachine, shards)
			for s := range parts {
				parts[s] = ta.mk()
			}
			var keys [][]byte
			var read []byte
			for i := 0; i < 12; i++ {
				k := []byte(fmt.Sprintf("key-%02d", i))
				keys = append(keys, k)
				if i%3 == 0 {
					continue // every third key untouched (a miss / empty book)
				}
				w := ta.singleWrite(k, byte('0'+i%10))
				ref.Apply(w)
				parts[ShardOfKey(k, shards)].Apply(w)
			}
			switch ta.name {
			case "rkv":
				read = EncodeRMGet(keys...)
			case "kv":
				read = EncodeKVMGet(keys...)
			default:
				read = EncodeTops(keys...)
			}

			fr := ref.(Fragmenter)
			if !fr.ReadOnly(read) {
				t.Fatal("multi-read not classified ReadOnly")
			}
			gotKeys, err := fr.AppendKeys(nil, read)
			if err != nil || len(gotKeys) != len(keys) {
				t.Fatalf("Keys: %d keys, err=%v", len(gotKeys), err)
			}
			legShards, legKeys := fragPlan(keys, shards)
			legs := make([][]byte, len(legShards))
			for li, s := range legShards {
				frag, err := fr.Fragment(nil, read, legKeys[li])
				if err != nil {
					t.Fatalf("fragment leg %d: %v", li, err)
				}
				legs[li] = parts[s].Apply(frag)
			}
			got := fr.Merge(read, legs, legKeys)
			want := ref.Apply(read)
			if !bytes.Equal(got, want) {
				t.Fatalf("merged = %x\nwant   = %x", got, want)
			}

			// A failing leg surfaces its status deterministically.
			legs[1] = []byte{StatusBadReq}
			if res := fr.Merge(read, legs, legKeys); len(res) != 1 || res[0] != StatusBadReq {
				t.Fatalf("failing leg merge = %v, want [StatusBadReq]", res)
			}
		})
	}
}

// TestMergeCopiesEachValueOnce: a warm merge of two legs with one found key
// each allocates only its result (3 while each value was copied out of its
// leg and then again into the result), answers what one store holding both
// keys answers, and merges a malformed or miscounted leg to StatusBadReq.
func TestMergeCopiesEachValueOnce(t *testing.T) {
	a, b := []byte("key-a"), []byte("key-b")
	one, legA, legB := NewKV(0), NewKV(0), NewKV(0)
	for _, s := range []*KV{one, legA} {
		s.Apply(EncodeKVSet(a, []byte("value-a")))
	}
	for _, s := range []*KV{one, legB} {
		s.Apply(EncodeKVSet(b, []byte("value-b")))
	}
	read := EncodeKVMGet(a, b)
	legs := [][]byte{
		slices.Clone(legA.Apply(EncodeKVMGet(a))),
		slices.Clone(legB.Apply(EncodeKVMGet(b))),
	}
	legKeys := [][]int{{0}, {1}}
	m := NewKV(0)
	if got, want := m.Merge(read, legs, legKeys), one.Apply(read); !bytes.Equal(got, want) {
		t.Fatalf("merged = %x, want %x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { m.Merge(read, legs, legKeys) }); n > 1 {
		t.Errorf("a warm two-leg merge allocates %.1f times, want at most 1 (its result)", n)
	}
	for _, c := range []struct {
		name    string
		leg     []byte
		legKeys [][]int
	}{
		{"truncated", legs[1][:len(legs[1])-1], legKeys},
		{"trailing byte", append(slices.Clone(legs[1]), 0), legKeys},
		{"count past the end", []byte{StatusOK, 0xff, 0xff, 0x03, 0}, legKeys},
		{"more entries than keys", legs[1], [][]int{{0}, {}}},
		{"key index out of range", legs[1], [][]int{{0}, {2}}},
	} {
		if res := m.Merge(read, [][]byte{legs[0], c.leg}, c.legKeys); !bytes.Equal(res, []byte{StatusBadReq}) {
			t.Errorf("%s: merged %x, want StatusBadReq", c.name, res)
		}
	}
}

// TestAppendKeyedReads: a multi-read result decodes to one entry per key,
// a miss unfound, in request order, after what dst holds, without copying a
// value; a failed read yields its own status, a malformed result
// StatusBadReq, and no entries.
func TestAppendKeyedReads(t *testing.T) {
	kv := NewKV(0)
	kv.Apply(EncodeKVSet([]byte("a"), []byte("va")))
	kv.Apply(EncodeKVSet([]byte("c"), []byte("vc")))
	res := kv.Apply(EncodeKVMGet([]byte("a"), []byte("b"), []byte("c")))
	held := KeyedRead{true, []byte("held")}
	reads, status := AppendKeyedReads([]KeyedRead{held}, res)
	want := []KeyedRead{held, {true, []byte("va")}, {false, nil}, {true, []byte("vc")}}
	if status != StatusOK || len(reads) != len(want) {
		t.Fatalf("decoded %d reads, status %d", len(reads), status)
	}
	for i, e := range reads {
		if e.Found != want[i].Found || !bytes.Equal(e.Value, want[i].Value) {
			t.Fatalf("read %d = %+v, want %+v", i, e, want[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { AppendKeyedReads(reads[:0], res) }); n != 0 {
		t.Errorf("decoding into room enough allocates %.1f times, want 0: the values are views of res", n)
	}
	for _, c := range []struct {
		name   string
		res    []byte
		status uint8
	}{
		{"empty", nil, StatusBadReq},
		{"failed", []byte{StatusLocked}, StatusLocked},
		{"truncated", res[:len(res)-1], StatusBadReq},
		{"trailing byte", append(slices.Clone(res), 0), StatusBadReq},
		{"count past the end", []byte{StatusOK, 0xff, 0xff, 0x03, 0}, StatusBadReq},
	} {
		if reads, status := AppendKeyedReads(nil, c.res); status != c.status || reads != nil {
			t.Fatalf("%s: %d reads, status %d, want none and %d", c.name, len(reads), status, c.status)
		}
	}
}

// TestFragmentWrites: write fragments partition the keys by shard and are
// themselves valid prepare fragments.
func TestFragmentWrites(t *testing.T) {
	const shards = 4
	for _, ta := range txnApps() {
		t.Run(ta.name, func(t *testing.T) {
			a, b := []byte("wa"), []byte("wb")
			req := ta.writeFrag(a, b, '5')
			fr := ta.mk().(Fragmenter)
			if fr.ReadOnly(req) {
				t.Fatal("write classified ReadOnly")
			}
			keys, err := fr.AppendKeys(nil, req)
			if err != nil || len(keys) != 2 {
				t.Fatalf("Keys: %q err=%v", keys, err)
			}
			for i, k := range keys {
				frag, err := fr.Fragment(nil, req, []int{i})
				if err != nil {
					t.Fatalf("fragment %d: %v", i, err)
				}
				sm := ta.mk()
				if res := sm.Apply(EncodeTxnPrepare(nil, 1, 0, frag)); len(res) != 1 || res[0] != StatusOK {
					t.Fatalf("fragment %d not preparable: %v", i, res)
				}
				if got := sm.(lockTabler).LockedKeys(); got != 1 {
					t.Fatalf("fragment %d locked %d keys, want 1", i, got)
				}
				if res := sm.Apply(EncodeTxnCommit(nil, 1)); res[0] != StatusOK {
					t.Fatalf("fragment %d commit: %v", i, res)
				}
				if !ta.visible(sm, k, '5') {
					t.Fatalf("fragment %d write not installed for key %q", i, k)
				}
			}
		})
	}
}
