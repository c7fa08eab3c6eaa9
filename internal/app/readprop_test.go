package app

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The read invariant every MVCC application shares now that ApplyRead and
// ApplyReadAt are one routine in two modes: with no transaction lock held,
// a read pinned at the current version IS the unordered read; under a lock
// the two modes differ exactly as documented (refuse vs. report crossed).

// readPropApp generates one application's commands for the property.
type readPropApp struct {
	name string
	mk   func() StateMachine
	// op draws any ordered command (reads and malformed ones included).
	op func(rng *rand.Rand) []byte
	// read draws a read-shaped request, occasionally malformed.
	read func(rng *rand.Rand) []byte
	// frag draws a write fragment for a raw 2PC prepare.
	frag func(rng *rand.Rand) []byte
}

func propKey(rng *rand.Rand) []byte { return []byte(fmt.Sprintf("k%d", rng.Intn(8))) }

// orderParams draws a side, price and quantity around a stable mid, so
// books cross regularly (matching work, not just resting inserts).
func orderParams(rng *rand.Rand) (side uint8, price, qty uint64) {
	return OpBuy + uint8(rng.Intn(2)), 95 + uint64(rng.Intn(10)), 1 + uint64(rng.Intn(9))
}

func readPropApps() []readPropApp {
	var apps []readPropApp
	for _, c := range []keyedCodec{kvCodec(4), rkvCodec()} {
		g := &goldenRun{c: c}
		draw := func(f func() []byte) func(*rand.Rand) []byte {
			return func(rng *rand.Rand) []byte { g.rng = rng; return f() }
		}
		apps = append(apps, readPropApp{
			name: c.name,
			mk:   func() StateMachine { return c.mk() },
			op: draw(func() []byte {
				if g.rng.Intn(6) == 0 {
					return g.malformed()
				}
				return g.valid()
			}),
			read: draw(func() []byte {
				switch g.rng.Intn(8) {
				case 0:
					return g.malformed()
				case 1, 2, 3:
					return c.mget(g.keys(g.rng.Intn(4))...)
				default:
					return c.keyOps[0](g.key())
				}
			}),
			frag: draw(func() []byte { return c.mset(g.pairs(1 + g.rng.Intn(3))...) }),
		})
	}
	leg := func(rng *rand.Rand) OrderLeg {
		side, price, qty := orderParams(rng)
		return OrderLeg{Sym: propKey(rng), Side: side, Price: price, Qty: qty}
	}
	apps = append(apps, readPropApp{
		name: "orderbook",
		mk:   func() StateMachine { return NewOrderBook() },
		op: func(rng *rand.Rand) []byte {
			side, price, qty := orderParams(rng)
			switch rng.Intn(8) {
			case 0:
				return EncodeOrder(side, price, qty)
			case 1:
				return EncodeCancel(uint64(1 + rng.Intn(20)))
			case 2:
				return EncodePairOrder(leg(rng), leg(rng))
			case 3:
				return []byte{OpOrderSym, 0xFF}
			default:
				return EncodeOrderSym(propKey(rng), side, price, qty)
			}
		},
		read: func(rng *rand.Rand) []byte {
			switch rng.Intn(8) {
			case 0:
				return append(EncodeTops(propKey(rng)), 7) // trailing byte
			case 1:
				return EncodeTops(nil, []byte("never-traded"))
			default:
				syms := make([][]byte, rng.Intn(4))
				for i := range syms {
					syms[i] = propKey(rng)
				}
				return EncodeTops(syms...)
			}
		},
		// Both shapes a participant can be handed: one leg of a cross-shard
		// pair, or the whole pair.
		frag: func(rng *rand.Rand) []byte {
			if a := leg(rng); rng.Intn(2) == 0 {
				return EncodeOrderSym(a.Sym, a.Side, a.Price, a.Qty)
			}
			return EncodePairOrder(leg(rng), leg(rng))
		},
	})
	return apps
}

// TestReadAtHeadEqualsRead: over random command streams in which every
// transaction resolves within its step (so no lock is held at a probe),
// ApplyReadAt(req, head) returns ApplyRead(req)'s bytes and acceptance, and
// never reports crossed. For the order book the probe also checks what
// makes that structural: the versioned view of every symbol equals its
// live top of book.
func TestReadAtHeadEqualsRead(t *testing.T) {
	for _, pa := range readPropApps() {
		t.Run(pa.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				sm := pa.mk()
				re, ver := sm.(VersionedReadExecutor), sm.(Versioned)
				var head uint64
				apply := func(req []byte) {
					head++
					ver.BeginSlot(head)
					sm.Apply(req)
				}
				for i := 0; i < 300; i++ {
					if rng.Intn(8) == 0 {
						txid := uint64(i + 1)
						apply(EncodeTxnPrepare(nil, txid, 0, pa.frag(rng)))
						if rng.Intn(3) == 0 {
							apply(EncodeTxnAbort(nil, txid))
						} else {
							apply(EncodeTxnCommit(nil, txid))
						}
					} else {
						apply(pa.op(rng))
					}
					if i%50 == 49 {
						ver.PruneVersions(head - 10)
					}
					req := pa.read(rng)
					live, okLive := re.ApplyRead(req)
					live = bytes.Clone(live) // the next read overwrites it
					pinned, crossed, okPinned := re.ApplyReadAt(req, head)
					if okLive != okPinned || crossed || !bytes.Equal(live, pinned) {
						t.Fatalf("seed %d step %d req %x: ApplyRead = (%x, %v), ApplyReadAt(head) = (%x, crossed %v, %v)",
							seed, i, req, live, okLive, pinned, crossed, okPinned)
					}
					if ob, isBook := sm.(*OrderBook); isBook {
						for sym := range ob.books {
							if view, _ := ob.tops.Get([]byte(sym)); !bytes.Equal(view, ob.topsEntry([]byte(sym))) {
								t.Fatalf("seed %d step %d: view of %q is stale", seed, i, sym)
							}
						}
					}
				}
			}
		})
	}
}

// TestReadUnderLock: with a key held by a staged transaction, the
// unordered multi-read refuses with a bare StatusLocked while the pinned
// one answers the pre-transaction data and reports crossed; a point read
// stays read-committed in both modes and differs only in the flag.
func TestReadUnderLock(t *testing.T) {
	a, b, c := []byte("ka"), []byte("kb"), []byte("kc")
	for _, ta := range txnApps() {
		t.Run(ta.name, func(t *testing.T) {
			sm := ta.mk()
			re, ver := sm.(VersionedReadExecutor), sm.(Versioned)
			var head uint64
			apply := func(req []byte) []byte {
				head++
				ver.BeginSlot(head)
				return sm.Apply(req)
			}
			apply(ta.singleWrite(a, '1'))
			apply(ta.singleWrite(b, '2'))
			read := ta.multiRead(a, b)
			before, ok := re.ApplyRead(read)
			before = bytes.Clone(before) // the next read overwrites it
			if !ok || len(before) < 2 {
				t.Fatalf("unlocked read: %x %v", before, ok)
			}
			if res := apply(EncodeTxnPrepare(nil, 1, 0, ta.writeFrag(a, c, '3'))); len(res) != 1 || res[0] != StatusOK {
				t.Fatalf("prepare: %v", res)
			}
			if live, ok := re.ApplyRead(read); !ok || len(live) != 1 || live[0] != StatusLocked {
				t.Fatalf("unordered multi-read under lock = (%x, %v), want bare StatusLocked", live, ok)
			}
			pinned, crossed, ok := re.ApplyReadAt(read, head)
			if !ok || !crossed || !bytes.Equal(pinned, before) {
				t.Fatalf("pinned multi-read under lock = (%x, crossed %v, %v), want (%x, true, true)", pinned, crossed, ok, before)
			}
		})
	}
	for _, kc := range keyedCodecs() {
		t.Run(kc.name+"-point", func(t *testing.T) {
			s := kc.mk()
			s.BeginSlot(1)
			s.Apply(kc.valOps[0](a, []byte("v")))
			s.BeginSlot(2)
			s.Apply(EncodeTxnPrepare(nil, 1, 0, kc.mset(Pair{Key: a, Val: []byte("w")})))
			get := kc.keyOps[0](a)
			live, ok := s.ApplyRead(get)
			live = bytes.Clone(live) // the next read overwrites it
			pinned, crossed, okAt := s.ApplyReadAt(get, 2)
			if !ok || !okAt || !crossed || !bytes.Equal(live, pinned) || string(live[2:]) != "v" {
				t.Fatalf("point read under lock: live (%x, %v), pinned (%x, crossed %v, %v)", live, ok, pinned, crossed, okAt)
			}
		})
	}
}

// TestReadAnswersShareOneBuffer: a store appends every ApplyRead and
// ApplyReadAt answer into one buffer of its own. Each answer holds the bytes
// a store that never read before answers at the same state, the next read
// writes over the same buffer when it fits, and a warm point read allocates
// nothing.
func TestReadAnswersShareOneBuffer(t *testing.T) {
	for _, pa := range readPropApps() {
		t.Run(pa.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			sm := pa.mk()
			re, ver := sm.(VersionedReadExecutor), sm.(Versioned)
			for head := uint64(1); head <= 200; head++ {
				ver.BeginSlot(head)
				sm.Apply(pa.op(rng))
				req, at := pa.read(rng), 1+uint64(rng.Intn(int(head)))
				twin := pa.mk()
				twin.Restore(sm.Snapshot())
				wantLive, wantOK := twin.(ReadExecutor).ApplyRead(req)
				wantLive = bytes.Clone(wantLive)
				twin = pa.mk()
				twin.Restore(sm.Snapshot())
				wantPinned, wantCrossed, wantAtOK := twin.(VersionedReadExecutor).ApplyReadAt(req, at)

				live, ok := re.ApplyRead(req)
				if ok != wantOK || !bytes.Equal(live, wantLive) {
					t.Fatalf("step %d req %x: ApplyRead = (%x, %v), a store that never read answers (%x, %v)", head, req, live, ok, wantLive, wantOK)
				}
				fits := len(live) > 0 && cap(live) >= len(wantPinned)
				pinned, crossed, okAt := re.ApplyReadAt(req, at)
				if okAt != wantAtOK || crossed != wantCrossed || !bytes.Equal(pinned, wantPinned) {
					t.Fatalf("step %d req %x at %d: ApplyReadAt = (%x, %v, %v), a store that never read answers (%x, %v, %v)",
						head, req, at, pinned, crossed, okAt, wantPinned, wantCrossed, wantAtOK)
				}
				if fits && len(pinned) > 0 && &pinned[0] != &live[0] {
					t.Fatalf("step %d: ApplyReadAt's answer fit the buffer ApplyRead's came in, yet took another", head)
				}
			}
		})
	}
	for _, kc := range keyedCodecs() {
		t.Run(kc.name+"-point", func(t *testing.T) {
			s := kc.mk()
			s.BeginSlot(1)
			s.Apply(kc.valOps[0]([]byte("k"), []byte("value")))
			get := kc.keyOps[0]([]byte("k"))
			allocs := testing.AllocsPerRun(100, func() {
				s.ApplyRead(get)
				s.ApplyReadAt(get, 1)
			})
			if allocs != 0 {
				t.Fatalf("a warm point read allocates %.1f times", allocs)
			}
		})
	}
}
