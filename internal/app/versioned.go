package app

import (
	"sort"
	"unsafe"

	"repro/internal/wire"
)

// VersionedStore is the shared MVCC substrate of the keyed applications:
// every key maps to an ascending chain of (stamp, value) versions, where a
// version's stamp is the state version that first includes it (a command
// executed in slot s produces state version s+1, the same numbering the
// read fast path's floors and frontiers already speak). On top of the
// chains the store answers two read shapes:
//
//   - Get: the newest version — what the ordered path and the unpinned
//     fast path read.
//   - GetAt(at): the state as of an exact version `at` — what pinned
//     snapshot reads and strong reads use. Every correct replica with
//     lastApplied >= at answers GetAt(at) identically, which is what makes
//     pinned quorum digests matchable regardless of replica skew.
//
// Versions written while installing a staged transaction fragment carry a
// txn flag; TxnTouched reports whether a key saw transactional writes
// after a pin, which is how a pinned read detects that it may straddle a
// cross-shard commit (the shard layer's consistent-cut rule).
//
// Chains are garbage-collected by a horizon ratcheted at stable-checkpoint
// creation (deterministically: same applied state, same horizon on every
// correct replica — the horizon travels through Snapshot/Restore). The
// ratchet keeps, per key, the newest version at or below the horizon (it
// is still visible to every readable pin) and drops everything older, so
// retained versions are bounded by live keys plus the writes of the last
// two checkpoint windows; reads below the horizon are refused and fall
// back to the ordered path.
//
// Keys and values are byte slices the store only reads during the call: it
// copies what it keeps, once, into the record that keeps it. A write to a
// key the store holds updates its chain through the pointer the map keeps
// and costs one exact-size copy of the value; a new key costs no allocation
// of its own: its chain, which holds the key's bytes and its first value's
// (newChain), is carved from a block of chainBlock chains the store owns,
// so one allocation serves 31 new keys.
//
// A block goes to the garbage collector only once every chain carved from it
// is gone. A bounded store's FIFO eviction frees whole blocks (keys leave in
// the order they came), but deletes in random order can leave a block alive
// for one chain: the retention bound is up to chainBlock chain slots (4 KiB)
// per live chain, against the one chain of a record made on its own. Every
// value Get and GetAt return is the store's, capped (cap == len), and never
// written.
type VersionedStore struct {
	chains  map[string]*chain
	rest    []chain // the current block's uncarved chains (newChain)
	cur     uint64  // stamp applied to writes (set by BeginSlot)
	horizon uint64  // oldest readable state version
	live    int     // keys whose newest version is present
}

// chain is one key's versions, oldest first. A chain keeps its first version
// in first, so a new key costs no array of its own, and the key's bytes and
// the first value's in room, which fills the record to the 128-byte size
// class (or in one exact-size block for both when they do not fit there).
type chain struct {
	key      string // the map's key for it, which the eviction order shares
	versions []version
	first    [1]version
	room     [chainRoom]byte
}

// chainRoom is the room a chain has for its key's and first value's bytes:
// a 16 B key and a 32 B value, the paper's Memcached and Redis workload.
const chainRoom = 48

// chainBlock is how many chains one block holds. A block holds pointers, so
// the allocator puts an 8-byte header in front of it: 31 chains of 128 B and
// the header fit the 4 KiB size class, 132 B a chain. (32 would spill into
// the next class; 16 take the 2304 B class, 144 B a chain.)
const chainBlock = 31

// newChain makes a chain whose first version is first, carved from the
// store's current block, copying k and first.val into the chain's room, or
// into one exact-size block for both. The two are written here and never
// again, and chains are never recycled.
func (vs *VersionedStore) newChain(k []byte, first version) *chain {
	c := &wire.Carve(&vs.rest, 1, chainBlock)[0]
	b := c.room[:0]
	if n := len(k) + len(first.val); n > chainRoom {
		b = make([]byte, 0, n)
	}
	b = append(append(b, k...), first.val...)
	c.key = keyString(b[:len(k)])
	first.val = b[len(k):len(b):len(b)]
	c.first[0] = first
	c.versions = c.first[:]
	return c
}

// keyString is a string view of b, not a copy: a chain's key, viewing the
// bytes newChain copied the key into, and a lock's key, viewing the
// LockTable's staged fragment. It is sound where those bytes are never
// written while anything refers to the string. A chain's bytes are never
// written after newChain returns and a chain is never recycled, so every
// string made of them (the map's key, the eviction order's, the one
// SnapshotTo sorts) reads the same bytes for as long as it lives, and keeps
// the chain's whole block alive. A staged fragment is written again only
// after Commit or Abort deleted every lock its views key.
func keyString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// ownCopy is a later version's value: an exact-size copy (cap == len).
func ownCopy(val []byte) []byte {
	b := make([]byte, len(val))
	copy(b, val)
	return b
}

// version is one link of a key's chain.
type version struct {
	stamp   uint64
	val     []byte
	present bool // false = tombstone (delete)
	txn     bool // installed by a staged transaction fragment
}

// NewVersionedStore creates an empty store.
func NewVersionedStore() *VersionedStore {
	return &VersionedStore{chains: make(map[string]*chain)}
}

// BeginSlot sets the stamp for subsequent writes: the state version the
// currently executing command produces (slot s => version s+1). The
// replica calls it before applying each ordered command.
func (vs *VersionedStore) BeginSlot(v uint64) { vs.cur = v }

// Horizon returns the oldest state version the store can still answer.
func (vs *VersionedStore) Horizon() uint64 { return vs.horizon }

// versions returns k's chain of versions, nil if the store has none.
func (vs *VersionedStore) versions(k []byte) []version {
	if c := vs.chains[string(k)]; c != nil {
		return c.versions
	}
	return nil
}

// key returns the string the store keeps for k, the one its chain's bytes
// back, or a copy of k when the store has no chain for it.
func (vs *VersionedStore) key(k []byte) string {
	if c := vs.chains[string(k)]; c != nil {
		return c.key
	}
	return string(k)
}

// Get returns the current value of a key.
func (vs *VersionedStore) Get(k []byte) ([]byte, bool) {
	ch := vs.versions(k)
	if len(ch) == 0 || !ch[len(ch)-1].present {
		return nil, false
	}
	return ch[len(ch)-1].val, true
}

// Has reports whether the key currently holds a value.
func (vs *VersionedStore) Has(k []byte) bool {
	ch := vs.versions(k)
	return len(ch) > 0 && ch[len(ch)-1].present
}

// GetAt returns the value of a key as of state version at (the newest
// version with stamp <= at). The caller is responsible for refusing reads
// below Horizon; GetAt itself just walks the chain.
func (vs *VersionedStore) GetAt(k []byte, at uint64) ([]byte, bool) {
	ch := vs.versions(k)
	for i := len(ch) - 1; i >= 0; i-- {
		if ch[i].stamp <= at {
			if !ch[i].present {
				return nil, false
			}
			return ch[i].val, true
		}
	}
	return nil, false
}

// TxnTouched reports whether the key has a transaction-installed version
// newer than the pin `after` — the MVCC half of the consistent-cut rule
// (the other half, a currently staged lock, lives in the LockTable).
func (vs *VersionedStore) TxnTouched(k []byte, after uint64) bool {
	ch := vs.versions(k)
	for i := len(ch) - 1; i >= 0; i-- {
		if ch[i].stamp <= after {
			return false
		}
		if ch[i].txn {
			return true
		}
	}
	return false
}

// Set writes a value at the current stamp. The store copies k and val.
func (vs *VersionedStore) Set(k, val []byte) { vs.write(k, val, true, false) }

// SetTxn writes a value at the current stamp, flagged as installed by a
// committed transaction fragment.
func (vs *VersionedStore) SetTxn(k, val []byte) { vs.write(k, val, true, true) }

// Delete writes a tombstone at the current stamp.
func (vs *VersionedStore) Delete(k []byte) { vs.write(k, nil, false, false) }

// write appends (or, within one slot, replaces) the newest version of k,
// copying k and val where the store keeps them.
func (vs *VersionedStore) write(k, val []byte, present, txn bool) {
	c := vs.chains[string(k)]
	if c == nil {
		c = vs.newChain(k, version{stamp: vs.cur, val: val, present: present, txn: txn})
		vs.chains[c.key] = c
		if present {
			vs.live++
		}
		return
	}
	val = ownCopy(val)
	ch := c.versions
	was := len(ch) > 0 && ch[len(ch)-1].present
	if n := len(ch); n > 0 && ch[n-1].stamp == vs.cur {
		// Several writes in one slot collapse to one version; the txn flag
		// is sticky so a same-slot overwrite cannot hide a commit from
		// TxnTouched.
		ch[n-1].val, ch[n-1].present, ch[n-1].txn = val, present, txn || ch[n-1].txn
	} else {
		c.versions = append(ch, version{stamp: vs.cur, val: val, present: present, txn: txn})
	}
	if present != was {
		if present {
			vs.live++
		} else {
			vs.live--
		}
	}
}

// Ratchet raises the GC horizon and compacts every chain: per key the
// newest version with stamp <= horizon survives (every readable pin still
// resolves to it), everything older is dropped, and a chain whose only
// survivor is a tombstone disappears entirely.
func (vs *VersionedStore) Ratchet(horizon uint64) {
	if horizon <= vs.horizon {
		return
	}
	vs.horizon = horizon
	//ubft:deterministic per-key chain trim: each iteration reads and writes only chains[k], so iteration order cannot be observed
	for k, c := range vs.chains {
		ch := c.versions
		keep := 0
		for i := len(ch) - 1; i >= 0; i-- {
			if ch[i].stamp <= horizon {
				keep = i
				break
			}
		}
		if keep > 0 {
			ch = append(ch[:0], ch[keep:]...)
		}
		if len(ch) == 1 && !ch[0].present && ch[0].stamp <= horizon {
			delete(vs.chains, k)
			continue
		}
		c.versions = ch
	}
}

// Len returns the number of keys currently holding a value.
func (vs *VersionedStore) Len() int { return vs.live }

// VersionCount returns the total number of retained versions across all
// chains — the bounded-memory regression surface.
func (vs *VersionedStore) VersionCount() int {
	n := 0
	for _, c := range vs.chains {
		n += len(c.versions)
	}
	return n
}

// SnapshotTo serializes the store deterministically (sorted keys, chains
// in stamp order), horizon included — a restored replica refuses exactly
// the pins the snapshotting replica would have.
func (vs *VersionedStore) SnapshotTo(w *wire.Writer) {
	w.U64(vs.horizon)
	keys := make([]string, 0, len(vs.chains))
	for k := range vs.chains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		ch := vs.chains[k].versions
		w.String(k)
		w.Uvarint(uint64(len(ch)))
		for _, v := range ch {
			w.U64(v.stamp)
			flags := uint8(0)
			if v.present {
				flags |= 1
			}
			if v.txn {
				flags |= 2
			}
			w.U8(flags)
			w.Bytes(v.val)
		}
	}
}

// RestoreFrom rebuilds the store from SnapshotTo's serialization. Each chain
// is made as write makes it (newChain, then exact-size copies), so a
// restored store has the shape of one built by writes, and keeps nothing of
// rd's buffer.
func (vs *VersionedStore) RestoreFrom(rd *wire.Reader) {
	vs.horizon = rd.U64()
	n := int(rd.Uvarint())
	vs.chains = make(map[string]*chain, n)
	vs.live = 0
	for i := 0; i < n; i++ {
		k := rd.BytesView()
		cn := int(rd.Uvarint())
		if cn == 0 {
			continue // SnapshotTo writes no empty chain
		}
		c := vs.newChain(k, readVersion(rd))
		for j := 1; j < cn && rd.Err() == nil; j++ {
			v := readVersion(rd)
			v.val = ownCopy(v.val)
			c.versions = append(c.versions, v)
		}
		vs.chains[c.key] = c
		if ch := c.versions; ch[len(ch)-1].present {
			vs.live++
		}
	}
}

// readVersion decodes one version SnapshotTo wrote; its value is a view of
// rd's buffer.
func readVersion(rd *wire.Reader) version {
	stamp := rd.U64()
	flags := rd.U8()
	return version{stamp: stamp, val: rd.BytesView(), present: flags&1 != 0, txn: flags&2 != 0}
}
