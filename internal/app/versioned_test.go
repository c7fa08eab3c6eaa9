package app_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/wire"
)

// TestVersionedStoreChains: the MVCC substrate answers current and pinned
// reads from per-key version chains, collapses same-slot overwrites into
// one version with a sticky txn flag, and reports transactional writes
// after a pin via TxnTouched.
func TestVersionedStoreChains(t *testing.T) {
	vs := app.NewVersionedStore()
	vs.BeginSlot(1)
	vs.Set([]byte("k"), []byte("a"))
	vs.BeginSlot(3)
	vs.Set([]byte("k"), []byte("b"))

	if v, ok := vs.Get([]byte("k")); !ok || string(v) != "b" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	for at, want := range map[uint64]string{1: "a", 2: "a", 3: "b", 9: "b"} {
		if v, ok := vs.GetAt([]byte("k"), at); !ok || string(v) != want {
			t.Fatalf("GetAt(%d) = %q,%v want %q", at, v, ok, want)
		}
	}
	if _, ok := vs.GetAt([]byte("k"), 0); ok {
		t.Fatal("GetAt before the first write must miss")
	}

	// A tombstone is a version too: pins before it still see the value.
	vs.BeginSlot(4)
	vs.Delete([]byte("k"))
	if vs.Has([]byte("k")) {
		t.Fatal("Has after delete")
	}
	if _, ok := vs.GetAt([]byte("k"), 4); ok {
		t.Fatal("GetAt at the tombstone version must miss")
	}
	if v, ok := vs.GetAt([]byte("k"), 3); !ok || string(v) != "b" {
		t.Fatalf("GetAt(3) after delete = %q,%v", v, ok)
	}

	// Same-slot overwrite collapses to one version; the txn flag sticks so
	// an overwrite cannot hide a commit from TxnTouched.
	before := vs.VersionCount()
	vs.BeginSlot(5)
	vs.SetTxn([]byte("k"), []byte("c"))
	vs.Set([]byte("k"), []byte("d"))
	if got := vs.VersionCount(); got != before+1 {
		t.Fatalf("same-slot writes added %d versions, want 1", got-before)
	}
	if !vs.TxnTouched([]byte("k"), 4) {
		t.Fatal("TxnTouched lost under same-slot overwrite")
	}
	if vs.TxnTouched([]byte("k"), 5) {
		t.Fatal("TxnTouched after the txn version's own stamp")
	}
}

// TestVersionedStoreRatchet: GC keeps, per key, the newest version at or
// below the horizon (still visible to every readable pin), drops older
// ones, erases tombstone-only chains, and never moves backwards.
func TestVersionedStoreRatchet(t *testing.T) {
	vs := app.NewVersionedStore()
	for s := uint64(1); s <= 6; s++ {
		vs.BeginSlot(s)
		vs.Set([]byte("k"), []byte(fmt.Sprintf("v%d", s)))
	}
	vs.BeginSlot(2)
	vs.Set([]byte("gone"), []byte("x"))
	vs.BeginSlot(3)
	vs.Delete([]byte("gone"))

	vs.Ratchet(4)
	if got := vs.Horizon(); got != 4 {
		t.Fatalf("Horizon = %d", got)
	}
	// k keeps stamps 4,5,6; gone's surviving version is its tombstone, so
	// the chain disappears.
	if got := vs.VersionCount(); got != 3 {
		t.Fatalf("VersionCount after ratchet = %d, want 3", got)
	}
	for at, want := range map[uint64]string{4: "v4", 5: "v5", 6: "v6"} {
		if v, ok := vs.GetAt([]byte("k"), at); !ok || string(v) != want {
			t.Fatalf("GetAt(%d) after ratchet = %q,%v want %q", at, v, ok, want)
		}
	}
	if vs.Has([]byte("gone")) {
		t.Fatal("tombstoned key survived the ratchet")
	}

	vs.Ratchet(2) // lower horizon: no-op
	if got := vs.Horizon(); got != 4 {
		t.Fatalf("horizon moved backwards to %d", got)
	}
}

// TestVersionedStoreSnapshotRoundTrip: SnapshotTo/RestoreFrom preserves
// chains, stamps, txn flags, the live count, and the GC horizon — a
// restored replica answers every pin exactly as the snapshotting one.
func TestVersionedStoreSnapshotRoundTrip(t *testing.T) {
	vs := app.NewVersionedStore()
	vs.BeginSlot(1)
	vs.Set([]byte("a"), []byte("a1"))
	vs.Set([]byte("b"), []byte("b1"))
	vs.BeginSlot(2)
	vs.SetTxn([]byte("a"), []byte("a2"))
	vs.BeginSlot(3)
	vs.Delete([]byte("b"))
	vs.Ratchet(1)

	w := wire.NewWriter(256)
	vs.SnapshotTo(w)
	got := app.NewVersionedStore()
	rd := wire.NewReader(w.Finish())
	got.RestoreFrom(rd)
	if err := rd.Done(); err != nil {
		t.Fatalf("snapshot round trip: %v", err)
	}

	if got.Horizon() != vs.Horizon() || got.Len() != vs.Len() || got.VersionCount() != vs.VersionCount() {
		t.Fatalf("restored (horizon,len,versions) = (%d,%d,%d), want (%d,%d,%d)",
			got.Horizon(), got.Len(), got.VersionCount(), vs.Horizon(), vs.Len(), vs.VersionCount())
	}
	for _, k := range [][]byte{[]byte("a"), []byte("b")} {
		for at := uint64(1); at <= 3; at++ {
			v1, ok1 := vs.GetAt(k, at)
			v2, ok2 := got.GetAt(k, at)
			if ok1 != ok2 || !bytes.Equal(v1, v2) {
				t.Fatalf("GetAt(%q,%d): restored %q,%v want %q,%v", k, at, v2, ok2, v1, ok1)
			}
		}
	}
	if !got.TxnTouched([]byte("a"), 1) {
		t.Fatal("txn flag lost in the snapshot round trip")
	}
}

// versionedApp drives one application generically through its MVCC
// capability surface.
type versionedApp struct {
	name  string
	make  func() app.StateMachine
	write func(key []byte, gen int) []byte
	read  func(keys ...[]byte) []byte
}

func versionedApps() []versionedApp {
	return []versionedApp{
		{
			name:  "kv",
			make:  func() app.StateMachine { return app.NewKV(0) },
			write: func(k []byte, gen int) []byte { return app.EncodeKVSet(k, []byte(fmt.Sprintf("g%03d", gen))) },
			read:  func(keys ...[]byte) []byte { return app.EncodeKVMGet(keys...) },
		},
		{
			name:  "rkv",
			make:  func() app.StateMachine { return app.NewRKV() },
			write: func(k []byte, gen int) []byte { return app.EncodeRSet(k, []byte(fmt.Sprintf("g%03d", gen))) },
			read:  func(keys ...[]byte) []byte { return app.EncodeRMGet(keys...) },
		},
		{
			name: "orderbook",
			make: func() app.StateMachine { return app.NewOrderBook() },
			write: func(k []byte, gen int) []byte {
				return app.EncodeOrderSym(k, app.OpBuy, uint64(100+gen), 1)
			},
			read: func(keys ...[]byte) []byte { return app.EncodeTops(keys...) },
		},
	}
}

// TestAppsVersionedReadRoundTrip: for every MVCC application, pinned reads
// at the current version equal the live read, historical pins stay stable
// as state advances, the whole history (horizon included) survives
// Snapshot/Restore, and GC refuses pins below the horizon while still
// answering at it. The tentpole invariant of the versioned stores.
func TestAppsVersionedReadRoundTrip(t *testing.T) {
	for _, va := range versionedApps() {
		t.Run(va.name, func(t *testing.T) {
			sm := va.make()
			ver := sm.(app.Versioned)
			vre := sm.(app.VersionedReadExecutor)
			re := sm.(app.ReadExecutor)
			k0, k1 := []byte("alpha"), []byte("beta")
			read := va.read(k0, k1)

			hist := make(map[uint64][]byte)
			var last uint64
			for gen := 1; gen <= 6; gen++ {
				last = uint64(gen)
				ver.BeginSlot(last)
				key := k0
				if gen%2 == 0 {
					key = k1
				}
				if res := sm.Apply(va.write(key, gen)); len(res) == 0 {
					t.Fatalf("write gen %d rejected", gen)
				}
				res, crossed, ok := vre.ApplyReadAt(read, last)
				if !ok || crossed {
					t.Fatalf("pinned read at %d: ok=%v crossed=%v", last, ok, crossed)
				}
				hist[last] = bytes.Clone(res) // the next read overwrites res
			}

			// Pinned at the present == the live read path.
			live, ok := re.ApplyRead(read)
			if !ok || !bytes.Equal(live, hist[last]) {
				t.Fatalf("live read %x != pinned-at-present %x", live, hist[last])
			}
			// History is immutable: every old pin still answers as recorded.
			for at, want := range hist {
				if res, _, ok := vre.ApplyReadAt(read, at); !ok || !bytes.Equal(res, want) {
					t.Fatalf("pin %d drifted: %x want %x", at, res, want)
				}
			}

			// The full chain set travels through Snapshot/Restore.
			cp := sm.Snapshot()
			sm2 := va.make()
			sm2.Restore(cp)
			ver2 := sm2.(app.Versioned)
			vre2 := sm2.(app.VersionedReadExecutor)
			if ver2.VersionCount() != ver.VersionCount() || ver2.VersionHorizon() != ver.VersionHorizon() {
				t.Fatalf("restored (versions,horizon) = (%d,%d), want (%d,%d)",
					ver2.VersionCount(), ver2.VersionHorizon(), ver.VersionCount(), ver.VersionHorizon())
			}
			for at, want := range hist {
				if res, _, ok := vre2.ApplyReadAt(read, at); !ok || !bytes.Equal(res, want) {
					t.Fatalf("restored pin %d: %x want %x", at, res, want)
				}
			}

			// GC: pins below the horizon are refused, the horizon itself
			// still answers, and the ratchet travels through snapshots too.
			ver2.PruneVersions(4)
			if _, _, ok := vre2.ApplyReadAt(read, 3); ok {
				t.Fatal("pin below the GC horizon was answered")
			}
			for at := uint64(4); at <= last; at++ {
				if res, _, ok := vre2.ApplyReadAt(read, at); !ok || !bytes.Equal(res, hist[at]) {
					t.Fatalf("pin %d after GC: %x want %x", at, res, hist[at])
				}
			}
			sm3 := va.make()
			sm3.Restore(sm2.Snapshot())
			if got := sm3.(app.Versioned).VersionHorizon(); got != 4 {
				t.Fatalf("horizon after snapshot round trip = %d, want 4", got)
			}
			if _, _, ok := sm3.(app.VersionedReadExecutor).ApplyReadAt(read, 3); ok {
				t.Fatal("restored replica answered a pin its snapshotter would refuse")
			}
		})
	}
}

// TestKVPinnedReadCrossedSignal: the consistent-cut rule end to end at the
// application — a pinned read proceeds under a transaction's locks
// (unlike the live path, which answers StatusLocked) but flags crossed,
// keeps flagging crossed for pins older than the commit's version, and
// turns clean with the committed value once pinned at or past it. Plain
// (non-transactional) writes never set the flag.
func TestKVPinnedReadCrossedSignal(t *testing.T) {
	kv := app.NewKV(0)
	ver := app.Versioned(kv)
	k0, k1 := []byte("alpha"), []byte("beta")
	read := app.EncodeKVMGet(k0, k1)

	ver.BeginSlot(1)
	kv.Apply(app.EncodeKVSet(k0, []byte("old")))
	ver.BeginSlot(2)
	kv.Apply(app.EncodeKVSet(k1, []byte("old")))
	pre, crossed, ok := kv.ApplyReadAt(read, 2)
	if !ok || crossed {
		t.Fatalf("clean pre-txn pin: ok=%v crossed=%v", ok, crossed)
	}
	pre = bytes.Clone(pre) // the next read overwrites it

	// Stage a transaction on k0 (2PC prepare = consensus-ordered command).
	frag, err := kv.Fragment(nil, app.EncodeKVMSet(app.Pair{Key: k0, Val: []byte("new")}), []int{0})
	if err != nil {
		t.Fatalf("fragment: %v", err)
	}
	ver.BeginSlot(3)
	if res := kv.Apply(app.EncodeTxnPrepare(nil, 7, 0, frag)); len(res) != 1 || res[0] != app.StatusOK {
		t.Fatalf("prepare: %v", res)
	}
	// The live read path refuses; the pinned path answers pre-txn state
	// under the lock, flagged crossed.
	if res, _ := kv.ApplyRead(read); len(res) != 1 || res[0] != app.StatusLocked {
		t.Fatalf("live read under lock = %v, want StatusLocked", res)
	}
	res, crossed, ok := kv.ApplyReadAt(read, 2)
	if !ok || !crossed {
		t.Fatalf("pinned read under lock: ok=%v crossed=%v", ok, crossed)
	}
	if !bytes.Equal(res, pre) {
		t.Fatalf("pinned read under lock = %x, want pre-txn %x", res, pre)
	}

	ver.BeginSlot(4)
	if res := kv.Apply(app.EncodeTxnCommit(nil, 7)); len(res) < 1 || res[0] != app.StatusOK {
		t.Fatalf("commit: %v", res)
	}
	// Pins older than the commit still cross (the client must re-pin);
	// pinned at the commit's version the read is clean and post-txn.
	if _, crossed, ok := kv.ApplyReadAt(read, 3); !ok || !crossed {
		t.Fatalf("pre-commit pin after commit: ok=%v crossed=%v", ok, crossed)
	}
	post, crossed, ok := kv.ApplyReadAt(read, 4)
	if !ok || crossed {
		t.Fatalf("post-commit pin: ok=%v crossed=%v", ok, crossed)
	}
	if bytes.Equal(post, pre) {
		t.Fatal("post-commit pin still reads pre-txn state")
	}

	// A plain write afterwards never flags crossed for older pins.
	ver.BeginSlot(5)
	kv.Apply(app.EncodeKVSet(k1, []byte("plain")))
	if _, crossed, _ := kv.ApplyReadAt(read, 4); crossed {
		t.Fatal("plain write flagged crossed")
	}
}
