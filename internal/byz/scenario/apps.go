package scenario

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/wire"
)

// appAdapter maps the generic workload onto one application's opcode
// vocabulary. Values carry a round counter so the invariant checker can
// compare what a read returned against what was acknowledged: the KV
// stores encode it in the value string, the order book in a monotonically
// increasing bid price (each round's buy outbids the last, so the top of
// book always names the newest committed round).
type appAdapter struct {
	name   string
	newApp func(int) app.StateMachine

	write1    func(k []byte, tag int) []byte
	wrote1OK  func(res []byte) bool
	read1     func(k []byte) []byte
	val1      func(res []byte) (counter int, present, ok bool)
	pairWrite func(p, q []byte, tag int) []byte
	commitOK  func(res []byte) bool
	readPair  func(p, q []byte) []byte
	valPair   func(res []byte) (c1, c2 int, ok bool)
}

// obPrice maps a round counter onto a strictly increasing bid price.
func obPrice(tag int) uint64 { return 1000 + uint64(tag) }

func tagVal(tag int) []byte { return []byte(fmt.Sprintf("v%06d", tag)) }

func parseTagVal(v []byte) (int, bool) {
	var c int
	if _, err := fmt.Sscanf(string(v), "v%06d", &c); err != nil {
		return 0, false
	}
	return c, true
}

// parseKVRead decodes a status-prefixed single-value read ([OK|bytes v],
// or a one-byte miss/refusal).
func parseKVRead(res []byte) (int, bool, bool) {
	if len(res) == 1 {
		return 0, false, true // miss or refusal: present=false
	}
	rd := wire.NewReader(res)
	if rd.U8() != app.StatusOK {
		return 0, false, false
	}
	v := rd.Bytes()
	if rd.Done() != nil {
		return 0, false, false
	}
	c, ok := parseTagVal(v)
	return c, ok, ok
}

// parseKVMulti decodes a 2-entry multi-read into round counters (0 for a key
// never written).
func parseKVMulti(res []byte) (int, int, bool) {
	reads, status := app.AppendKeyedReads(nil, res)
	if status != app.StatusOK || len(reads) != 2 {
		return 0, 0, false
	}
	var out [2]int
	for i, e := range reads {
		if !e.Found {
			continue
		}
		c, ok := parseTagVal(e.Value)
		if !ok {
			return 0, 0, false
		}
		out[i] = c
	}
	return out[0], out[1], true
}

// parseTops decodes an n-symbol top-of-book response into round counters
// (top bid price maps back through obPrice).
func parseTops(res []byte, n int) ([]int, bool) {
	reads, status := app.AppendKeyedReads(nil, res)
	if status != app.StatusOK || len(reads) != n {
		return nil, false
	}
	out := make([]int, n)
	for i, e := range reads {
		if !e.Found {
			continue // empty book: counter 0
		}
		bid, _, _, _, hasBid, _, err := app.DecodeTopsEntry(e.Value)
		if err != nil {
			return nil, false
		}
		if hasBid {
			out[i] = int(bid - 1000)
		}
	}
	return out, true
}

func plainCommit(res []byte) bool { return len(res) == 1 && res[0] == app.StatusOK }

// keyedAdapter builds the adapter of one key-value store from its
// dialect: the constructor, the four request builders and the SET
// acknowledgement byte. Everything else — value tagging, read parsing, the
// bare commit byte — is common to both stores.
func keyedAdapter(name string, newApp func() app.StateMachine,
	set func(k, v []byte) []byte, get func(k []byte) []byte,
	mset func(...app.Pair) []byte, mget func(...[]byte) []byte, stored uint8) appAdapter {
	return appAdapter{
		name:     name,
		newApp:   func(int) app.StateMachine { return newApp() },
		write1:   func(k []byte, tag int) []byte { return set(k, tagVal(tag)) },
		wrote1OK: func(res []byte) bool { return len(res) == 1 && res[0] == stored },
		read1:    get,
		val1:     parseKVRead,
		pairWrite: func(p, q []byte, tag int) []byte {
			return mset(app.Pair{Key: p, Val: tagVal(tag)}, app.Pair{Key: q, Val: tagVal(tag)})
		},
		commitOK: plainCommit,
		readPair: func(p, q []byte) []byte { return mget(p, q) },
		valPair:  parseKVMulti,
	}
}

func adapters() map[string]appAdapter {
	return map[string]appAdapter{
		"kv": keyedAdapter("kv", func() app.StateMachine { return app.NewKV(0) },
			app.EncodeKVSet, app.EncodeKVGet, app.EncodeKVMSet, app.EncodeKVMGet, app.KVStored),
		"rkv": keyedAdapter("rkv", func() app.StateMachine { return app.NewRKV() },
			app.EncodeRSet, app.EncodeRGet, app.EncodeRMSet, app.EncodeRMGet, app.ROK),
		"orderbook": {
			name:   "orderbook",
			newApp: func(int) app.StateMachine { return app.NewOrderBook() },
			write1: func(k []byte, tag int) []byte {
				return app.EncodeOrderSym(k, app.OpBuy, obPrice(tag), 1)
			},
			wrote1OK: func(res []byte) bool { return len(res) > 0 && res[0] == 1 },
			read1:    func(k []byte) []byte { return app.EncodeTops(k) },
			val1: func(res []byte) (int, bool, bool) {
				out, ok := parseTops(res, 1)
				if !ok {
					return 0, false, false
				}
				return out[0], out[0] > 0, true
			},
			pairWrite: func(p, q []byte, tag int) []byte {
				return app.EncodePairOrder(
					app.OrderLeg{Sym: p, Side: app.OpBuy, Price: obPrice(tag), Qty: 1},
					app.OrderLeg{Sym: q, Side: app.OpBuy, Price: obPrice(tag), Qty: 1},
				)
			},
			// The order book answers a committed pair transfer with a
			// receipts envelope (StatusOK plus per-leg fills), not the bare
			// commit byte.
			commitOK: func(res []byte) bool { return len(res) > 1 && res[0] == app.StatusOK },
			readPair: func(p, q []byte) []byte { return app.EncodeTops(p, q) },
			valPair: func(res []byte) (int, int, bool) {
				out, ok := parseTops(res, 2)
				if !ok {
					return 0, 0, false
				}
				return out[0], out[1], true
			},
		},
	}
}
