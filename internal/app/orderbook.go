package app

import (
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/wire"
)

// OrderBook is a Liquibook-like financial order matching engine (§7.1):
// limit order books with price-time priority matching. The paper's
// workload sends 32 B orders, 50% BUY / 50% SELL; responses carry the
// fills (32 B to 288 B depending on matches).
//
// The capability redesign generalized it to many independent symbols (one
// book per symbol, the symbol being the sharding key) and added the full
// shard-layer capability set: symbol-scoped orders (OpOrderSym), atomic
// two-legged cross-symbol pairs (OpPair — e.g. sell A / buy B as one
// transfer, run as a 2PC transaction when the symbols live on different
// shards), and multi-symbol top-of-book reads (OpTops, scatter-gathered
// across shards). The legacy symbol-less opcodes operate on the default
// "" symbol, preserving the paper-workload behavior bit for bit.
//
// The books themselves are matched in place (versioning a full limit order
// book per write would be prohibitive); what is versioned is the read
// surface: a materialized symbol -> top-of-book view in a VersionedStore,
// refreshed after every book mutation, so pinned snapshot reads and strong
// reads answer OpTops as of any state version above the GC horizon.
type OrderBook struct {
	books map[string]*book
	tops  *VersionedStore // symbol -> topsEntry blob, one version per mutation
	// answer is the buffer every Apply, ApplyRead and ApplyReadAt answer is
	// appended into, the caller's until the next call (StateMachine.Apply);
	// keys holds an OpTops read's or a staged fragment's symbols (multiRead,
	// Fragment, writeFragmentKeys) and legs an OpPair's legs
	// (decodePairLegs) until the next one.
	answer []byte
	keys   [][]byte
	legs   []OrderLeg
	*LockTable
}

// book is one symbol's limit order book.
type book struct {
	nextID uint64
	bids   []restingOrder // sorted by (price desc, id asc)
	asks   []restingOrder // sorted by (price asc, id asc)
}

type restingOrder struct {
	ID    uint64
	Price uint64
	Qty   uint64
}

// Order opcodes.
const (
	OpBuy    uint8 = 1
	OpSell   uint8 = 2
	OpCancel uint8 = 3
	// OpOrderSym is a symbol-scoped limit order (the sharded variant of
	// OpBuy/OpSell; the symbol is the routing key).
	OpOrderSym uint8 = 4
	// OpPair is an atomic two-legged order across symbols (a transfer):
	// both legs execute, or — when the symbols span shards and the 2PC
	// transaction aborts — neither does.
	OpPair uint8 = 5
	// OpTops reads the best bid/ask of several symbols (scatter-gathered
	// across shards like a multi-key GET).
	OpTops uint8 = 6
)

// Fill describes one match.
type Fill struct {
	MakerID uint64
	Price   uint64
	Qty     uint64
}

// OrderLeg is one leg of a two-legged pair order.
type OrderLeg struct {
	Sym   []byte
	Side  uint8 // OpBuy or OpSell
	Price uint64
	Qty   uint64
}

// EncodeOrder builds a limit order request on the default symbol.
func EncodeOrder(side uint8, price, qty uint64) []byte {
	w := wire.NewWriter(24)
	w.U8(side)
	w.U64(price)
	w.U64(qty)
	return w.Finish()
}

// EncodeCancel builds a cancel request on the default symbol.
func EncodeCancel(orderID uint64) []byte {
	w := wire.NewWriter(16)
	w.U8(OpCancel)
	w.U64(orderID)
	return w.Finish()
}

// EncodeOrderSym builds a symbol-scoped limit order.
func EncodeOrderSym(sym []byte, side uint8, price, qty uint64) []byte {
	return appendOrderSym(nil, sym, side, price, qty)
}

// appendOrderSym appends a symbol-scoped limit order to dst.
func appendOrderSym(dst, sym []byte, side uint8, price, qty uint64) []byte {
	w := wire.WriterOn(dst)
	w.Grow(1 + wire.BytesLen(len(sym)) + 1 + 8 + 8)
	w.U8(OpOrderSym)
	w.Bytes(sym)
	w.U8(side)
	w.U64(price)
	w.U64(qty)
	return w.Finish()
}

// EncodePairOrder builds an atomic two-legged order.
func EncodePairOrder(a, b OrderLeg) []byte {
	w := wire.NewWriter(64 + len(a.Sym) + len(b.Sym))
	w.U8(OpPair)
	for _, leg := range []OrderLeg{a, b} {
		w.Bytes(leg.Sym)
		w.U8(leg.Side)
		w.U64(leg.Price)
		w.U64(leg.Qty)
	}
	return w.Finish()
}

// EncodeTops builds a multi-symbol top-of-book read.
func EncodeTops(syms ...[]byte) []byte { return encodeKeysOp(nil, OpTops, syms) }

// NewOrderBook creates an empty matching engine.
func NewOrderBook() *OrderBook {
	ob := &OrderBook{books: make(map[string]*book), tops: NewVersionedStore()}
	ob.LockTable = NewLockTable(ob.writeFragmentKeys, ob.installFragment, ob.Apply)
	return ob
}

// book returns the symbol's book, creating it on first use.
func (ob *OrderBook) book(sym []byte) *book {
	b, ok := ob.books[string(sym)]
	if !ok {
		b = &book{}
		ob.books[string(sym)] = b
	}
	return b
}

// BidCount exposes the default book's bid depth (diagnostics and tests).
func (ob *OrderBook) BidCount() int { return ob.BidCountSym(nil) }

// AskCount returns the default book's resting sell orders.
func (ob *OrderBook) AskCount() int { return ob.AskCountSym(nil) }

// BidCountSym exposes one symbol's bid depth.
func (ob *OrderBook) BidCountSym(sym []byte) int {
	if b, ok := ob.books[string(sym)]; ok {
		return len(b.bids)
	}
	return 0
}

// AskCountSym exposes one symbol's ask depth.
func (ob *OrderBook) AskCountSym(sym []byte) int {
	if b, ok := ob.books[string(sym)]; ok {
		return len(b.asks)
	}
	return 0
}

// Apply executes one order. Order responses encode the taker's order id,
// the unfilled remainder (0 = fully filled or fully matched), and the
// fills.
func (ob *OrderBook) Apply(req []byte) []byte {
	res := ob.apply(ob.answer[:0], req)
	if res != nil {
		ob.answer = res
	}
	return res
}

// apply executes one order, appending its answer to dst.
func (ob *OrderBook) apply(dst, req []byte) []byte {
	if res, handled := ApplyTxn(ob, dst, req); handled {
		return res
	}
	rd := wire.NewReader(req)
	op := rd.U8()
	switch op {
	case OpBuy, OpSell:
		price := rd.U64()
		qty := rd.U64()
		if rd.Done() != nil || qty == 0 {
			return appendOrderResp(dst, 0, 0, nil, false)
		}
		if ob.Locked(nil) {
			return ob.ParkOrRefuse(dst, [][]byte{nil}, req)
		}
		return ob.placeOn(dst, nil, op, price, qty)
	case OpCancel:
		id := rd.U64()
		if rd.Done() != nil {
			return appendOrderResp(dst, 0, 0, nil, false)
		}
		if ob.Locked(nil) {
			return ob.ParkOrRefuse(dst, [][]byte{nil}, req)
		}
		b := ob.book(nil)
		ok := cancelFrom(&b.bids, id) || cancelFrom(&b.asks, id)
		ob.noteTops(nil, false)
		return appendOrderResp(dst, id, 0, nil, ok)
	case OpOrderSym:
		sym := rd.BytesView()
		side := rd.U8()
		price := rd.U64()
		qty := rd.U64()
		if rd.Done() != nil || qty == 0 || (side != OpBuy && side != OpSell) {
			return appendOrderResp(dst, 0, 0, nil, false)
		}
		if ob.Locked(sym) {
			return ob.ParkOrRefuse(dst, [][]byte{sym}, req)
		}
		return ob.placeOn(dst, sym, side, price, qty)
	case OpPair:
		legs, err := ob.decodePairLegs(rd)
		if err != nil {
			return append(dst, StatusBadReq)
		}
		if ob.AnyLocked(legs[0].Sym, legs[1].Sym) {
			return ob.ParkOrRefuse(dst, [][]byte{legs[0].Sym, legs[1].Sym}, req)
		}
		return ob.placePair(dst, legs)
	case OpTops:
		// The shared read routine, unpinned (one implementation,
		// byte-identical across the ordered and fast paths); where it
		// reports the read blocked — a symbol held by an in-flight pair
		// transaction — the ordered read parks on the symbols it decoded,
		// so a top-of-book read never observes a transfer mid-commit.
		res, blocked, _ := multiRead(dst, &ob.keys, rd, ob.LockTable, ob.tops, headVersion, false, emptyTops)
		if len(blocked) > 0 {
			return ob.ParkOrRefuse(dst, blocked, req)
		}
		return res
	default:
		return appendOrderResp(dst, 0, 0, nil, false)
	}
}

// place executes one order on a symbol's book and refreshes the symbol's
// versioned view.
func (ob *OrderBook) place(sym []byte, side uint8, price, qty uint64) (id, remaining uint64, fills []Fill) {
	id, remaining, fills = ob.book(sym).place(side, price, qty)
	ob.noteTops(sym, false)
	return id, remaining, fills
}

// placeOn executes one order and appends its order response to dst.
func (ob *OrderBook) placeOn(dst, sym []byte, side uint8, price, qty uint64) []byte {
	id, remaining, fills := ob.place(sym, side, price, qty)
	return appendOrderResp(dst, id, remaining, fills, true)
}

// placePair executes both legs of a pair order, appending to dst StatusOK,
// then each leg's order response, length-prefixed.
func (ob *OrderBook) placePair(dst []byte, legs []OrderLeg) []byte {
	dst = append(dst, StatusOK)
	for _, leg := range legs {
		id, remaining, fills := ob.place(leg.Sym, leg.Side, leg.Price, leg.Qty)
		w := wire.WriterOn(dst)
		w.Uvarint(uint64(orderRespLen(len(fills))))
		dst = appendOrderResp(w.Finish(), id, remaining, fills, true)
	}
	return dst
}

// noteTops refreshes the versioned top-of-book view of one symbol after a
// book mutation (txn marks a transaction-installed version). Every book
// write funnels through here, so the newest view version always equals the
// live topsEntry — which is why every read, current or pinned, answers from
// the view.
func (ob *OrderBook) noteTops(sym []byte, txn bool) {
	e := ob.topsEntry(sym)
	if txn {
		ob.tops.SetTxn(sym, e)
	} else {
		ob.tops.Set(sym, e)
	}
}

// emptyTops is the top-of-book blob of a symbol with no book (no bid, no
// ask) — what a pinned read answers for a symbol that did not exist yet.
var emptyTops = func() []byte {
	w := wire.NewWriter(4)
	w.Bool(false)
	w.Bool(false)
	return w.Finish()
}()

// topsEntry encodes one symbol's best bid/ask blob, Bool(hasBid) +
// price/qty, Bool(hasAsk) + price/qty.
func (ob *OrderBook) topsEntry(sym []byte) []byte {
	w := wire.NewWriter(2 + 4*8)
	b := ob.books[string(sym)]
	for _, side := range [][]restingOrder{bidsOf(b), asksOf(b)} {
		if len(side) > 0 {
			w.Bool(true)
			w.U64(side[0].Price)
			w.U64(side[0].Qty)
		} else {
			w.Bool(false)
		}
	}
	return w.Finish()
}

func bidsOf(b *book) []restingOrder {
	if b == nil {
		return nil
	}
	return b.bids
}

func asksOf(b *book) []restingOrder {
	if b == nil {
		return nil
	}
	return b.asks
}

// DecodeTopsEntry parses one symbol's top-of-book blob (helper for
// clients and tests).
func DecodeTopsEntry(blob []byte) (bidPrice, bidQty, askPrice, askQty uint64, hasBid, hasAsk bool, err error) {
	rd := wire.NewReader(blob)
	if hasBid = rd.Bool(); hasBid {
		bidPrice, bidQty = rd.U64(), rd.U64()
	}
	if hasAsk = rd.Bool(); hasAsk {
		askPrice, askQty = rd.U64(), rd.U64()
	}
	return bidPrice, bidQty, askPrice, askQty, hasBid, hasAsk, rd.Done()
}

// decodePairLegs reads the two legs of an OpPair request (the opcode is
// already consumed) into ob.legs. Each leg's symbol is a view of the
// request: every caller uses it, or copies it, before the request goes.
func (ob *OrderBook) decodePairLegs(rd *wire.Reader) ([]OrderLeg, error) {
	legs := ob.legs[:0]
	for range 2 {
		leg := OrderLeg{Sym: rd.BytesView(), Side: rd.U8(), Price: rd.U64(), Qty: rd.U64()}
		if leg.Side != OpBuy && leg.Side != OpSell || leg.Qty == 0 {
			return nil, ErrNoKey
		}
		legs = append(legs, leg)
	}
	ob.legs = legs
	if rd.Done() != nil {
		return nil, ErrNoKey
	}
	return legs, nil
}

// place matches one order against the book and rests any remainder.
func (b *book) place(side uint8, price, qty uint64) (id, remaining uint64, fills []Fill) {
	b.nextID++
	id = b.nextID
	if side == OpBuy {
		fills, qty = b.match(nil, &b.asks, price, qty, false)
		if qty > 0 {
			b.rest(&b.bids, restingOrder{ID: id, Price: price, Qty: qty}, true)
		}
	} else {
		fills, qty = b.match(nil, &b.bids, price, qty, true)
		if qty > 0 {
			b.rest(&b.asks, restingOrder{ID: id, Price: price, Qty: qty}, false)
		}
	}
	return id, qty, fills
}

// match crosses the taker against the far side of the book. descending
// selects bid-side ordering. Returns fills with the matches appended, and
// the unfilled remainder.
func (b *book) match(fills []Fill, side *[]restingOrder, price, qty uint64, descending bool) ([]Fill, uint64) {
	for qty > 0 && len(*side) > 0 {
		top := &(*side)[0]
		crosses := top.Price <= price
		if descending {
			crosses = top.Price >= price
		}
		if !crosses {
			break
		}
		take := qty
		if top.Qty < take {
			take = top.Qty
		}
		fills = append(fills, Fill{MakerID: top.ID, Price: top.Price, Qty: take})
		qty -= take
		top.Qty -= take
		if top.Qty == 0 {
			*side = (*side)[1:]
		}
	}
	return fills, qty
}

// rest inserts a residual order preserving price-time priority.
func (b *book) rest(side *[]restingOrder, o restingOrder, descending bool) {
	idx := sort.Search(len(*side), func(i int) bool {
		if (*side)[i].Price == o.Price {
			return (*side)[i].ID > o.ID
		}
		if descending {
			return (*side)[i].Price < o.Price
		}
		return (*side)[i].Price > o.Price
	})
	*side = append(*side, restingOrder{})
	copy((*side)[idx+1:], (*side)[idx:])
	(*side)[idx] = o
}

func cancelFrom(side *[]restingOrder, id uint64) bool {
	for i := range *side {
		if (*side)[i].ID == id {
			*side = append((*side)[:i], (*side)[i+1:]...)
			return true
		}
	}
	return false
}

// orderRespLen is the length of an order response carrying n fills.
func orderRespLen(n int) int { return 17 + wire.UvarintLen(uint64(n)) + 24*n }

// appendOrderResp appends an order response to dst.
func appendOrderResp(dst []byte, id, remaining uint64, fills []Fill, ok bool) []byte {
	w := wire.WriterOn(dst)
	w.Grow(orderRespLen(len(fills)))
	w.Bool(ok)
	w.U64(id)
	w.U64(remaining)
	w.Uvarint(uint64(len(fills)))
	for _, f := range fills {
		w.U64(f.MakerID)
		w.U64(f.Price)
		w.U64(f.Qty)
	}
	return w.Finish()
}

// DecodeOrderResp parses an order response (helper for clients and tests).
func DecodeOrderResp(b []byte) (ok bool, id, remaining uint64, fills []Fill, err error) {
	rd := wire.NewReader(b)
	ok = rd.Bool()
	id = rd.U64()
	remaining = rd.U64()
	n := int(rd.Uvarint())
	for i := 0; i < n; i++ {
		fills = append(fills, Fill{MakerID: rd.U64(), Price: rd.U64(), Qty: rd.U64()})
	}
	return ok, id, remaining, fills, rd.Done()
}

// AppendKeys implements Router: the symbol is the routing key (legacy
// symbol-less orders live on the default "" symbol).
func (ob *OrderBook) AppendKeys(dst [][]byte, req []byte) ([][]byte, error) {
	rd := wire.NewReader(req)
	switch op := rd.U8(); op {
	case OpBuy, OpSell, OpCancel:
		if rd.Err() != nil {
			return nil, ErrNoKey
		}
		return append(dst, nil), nil
	case OpOrderSym:
		sym := rd.BytesView()
		if rd.Err() != nil {
			return nil, ErrNoKey
		}
		return append(dst, sym), nil
	case OpPair:
		a := rd.BytesView()
		rd.U8()
		rd.U64()
		rd.U64()
		b := rd.BytesView()
		if rd.Err() != nil {
			return nil, ErrNoKey
		}
		return append(dst, a, b), nil
	case OpTops:
		n, ok := readCount(rd, multiKeyMax)
		if !ok {
			return nil, ErrNoKey
		}
		syms := slices.Grow(dst, n)
		for i := 0; i < n; i++ {
			syms = append(syms, rd.BytesView())
		}
		if rd.Err() != nil {
			return nil, ErrNoKey
		}
		return syms, nil
	default:
		return nil, ErrNoKey
	}
}

// ApplyRead implements ReadExecutor: multi-symbol top-of-book reads
// execute against the current view with no side effects, byte-identical to
// the ordered Apply at the same state. A symbol held by an in-flight pair
// transaction answers a bare StatusLocked instead of parking (the caller
// falls back to the ordered path, which does).
func (ob *OrderBook) ApplyRead(req []byte) ([]byte, bool) {
	if len(req) == 0 || req[0] != OpTops {
		return nil, false
	}
	res, _, _ := multiRead(ob.answer[:0], &ob.keys, wire.NewReader(req[1:]), ob.LockTable, ob.tops, headVersion, false, emptyTops)
	ob.answer = res
	return res, true
}

// ApplyReadAt implements VersionedReadExecutor: the same read answered as
// of state version at. It proceeds under transaction locks (a pinned
// version is well-defined regardless) and instead reports txnCrossed when
// the read may straddle a pair transaction. With no lock held, ApplyReadAt
// at the current version and ApplyRead are the same computation.
func (ob *OrderBook) ApplyReadAt(req []byte, at uint64) ([]byte, bool, bool) {
	if len(req) == 0 || req[0] != OpTops || at < ob.tops.Horizon() {
		return nil, false, false
	}
	res, _, crossed := multiRead(ob.answer[:0], &ob.keys, wire.NewReader(req[1:]), ob.LockTable, ob.tops, at, true, emptyTops)
	ob.answer = res
	return res, crossed, true
}

// Versioned capability: the replica stamps every ordered command's writes
// and ratchets the GC horizon at stable-checkpoint creation.
func (ob *OrderBook) BeginSlot(v uint64)     { ob.tops.BeginSlot(v) }
func (ob *OrderBook) PruneVersions(h uint64) { ob.tops.Ratchet(h) }
func (ob *OrderBook) VersionHorizon() uint64 { return ob.tops.Horizon() }
func (ob *OrderBook) VersionCount() int      { return ob.tops.VersionCount() }

// ReadOnly implements Fragmenter: top-of-book reads scatter-gather, pair
// orders run 2PC.
func (ob *OrderBook) ReadOnly(req []byte) bool { return len(req) > 0 && req[0] == OpTops }

// Fragment implements Fragmenter.
func (ob *OrderBook) Fragment(dst, req []byte, keyIdx []int) ([]byte, error) {
	rd := wire.NewReader(req)
	switch op := rd.U8(); op {
	case OpPair:
		legs, err := ob.decodePairLegs(rd)
		if err != nil {
			return dst, err
		}
		switch {
		case len(keyIdx) == 2 && keyIdx[0] == 0 && keyIdx[1] == 1:
			return append(dst, req...), nil
		case len(keyIdx) == 1 && (keyIdx[0] == 0 || keyIdx[0] == 1):
			leg := legs[keyIdx[0]]
			return appendOrderSym(dst, leg.Sym, leg.Side, leg.Price, leg.Qty), nil
		default:
			return dst, ErrNoKey
		}
	case OpTops:
		sub, err := subsetKeys(&ob.keys, rd, keyIdx)
		if err != nil {
			return dst, err
		}
		return encodeKeysOp(dst, OpTops, sub), nil
	default:
		return dst, ErrNoKey
	}
}

// Merge implements Fragmenter for scatter-gathered top-of-book reads (the
// response layout matches the generic keyed-read shape).
func (ob *OrderBook) Merge(req []byte, legs [][]byte, legKeys [][]int) []byte {
	var reads []KeyedRead
	return mergeKeyedReads(&reads, legs, legKeys)
}

// writeFragmentKeys validates a staged fragment (a pair order or one of
// its single legs) and extracts the symbols the LockTable locks. It
// enforces the full install-side validation (sides, quantities, trailing
// bytes), not just symbol extraction: a fragment that Prepare votes yes
// on MUST be installable, or a raw prepare carrying a half-invalid pair
// could commit while installing only one leg. The symbols are views of
// frag in the order book's key scratch, valid until its next use.
func (ob *OrderBook) writeFragmentKeys(frag []byte) ([][]byte, error) {
	rd := wire.NewReader(frag)
	switch op := rd.U8(); op {
	case OpOrderSym:
		sym := rd.BytesView()
		side := rd.U8()
		rd.U64() // price
		qty := rd.U64()
		if rd.Done() != nil || qty == 0 || (side != OpBuy && side != OpSell) {
			return nil, ErrNoKey
		}
		ob.keys = append(ob.keys[:0], sym)
		return ob.keys, nil
	case OpPair:
		legs, err := ob.decodePairLegs(rd)
		if err != nil {
			return nil, err
		}
		ob.keys = append(ob.keys[:0], legs[0].Sym, legs[1].Sym)
		return ob.keys, nil
	default:
		return nil, ErrNoKey
	}
}

// installFragment executes a committed pair fragment's legs and returns
// the commit receipt: exactly the order response(s) the same fragment
// would have produced executing locally (taker id, remainder, fills), so
// the transaction driver can surface per-leg fill summaries in the
// cross-shard transaction response instead of a bare commit/abort byte.
// The receipt is a fresh slice: the LockTable keeps it.
func (ob *OrderBook) installFragment(frag []byte) []byte {
	rd := wire.NewReader(frag)
	switch op := rd.U8(); op {
	case OpOrderSym:
		sym := rd.BytesView()
		side := rd.U8()
		price := rd.U64()
		qty := rd.U64()
		if rd.Done() != nil || qty == 0 {
			return nil
		}
		return ob.placeOn(nil, sym, side, price, qty)
	case OpPair:
		legs, err := ob.decodePairLegs(rd)
		if err != nil {
			return nil
		}
		return ob.placePair(nil, legs)
	}
	return nil
}

// Snapshot serializes the books deterministically (sorted symbols),
// including the embedded LockTable.
func (ob *OrderBook) Snapshot() []byte {
	syms := make([]string, 0, len(ob.books))
	for s := range ob.books {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	w := wire.NewWriter(128)
	w.Uvarint(uint64(len(syms)))
	for _, s := range syms {
		b := ob.books[s]
		w.String(s)
		w.U64(b.nextID)
		for _, side := range [][]restingOrder{b.bids, b.asks} {
			w.Uvarint(uint64(len(side)))
			for _, o := range side {
				w.U64(o.ID)
				w.U64(o.Price)
				w.U64(o.Qty)
			}
		}
	}
	ob.tops.SnapshotTo(w)
	ob.SnapshotTo(w)
	return w.Finish()
}

// Restore replaces the books from a snapshot.
func (ob *OrderBook) Restore(snap []byte) {
	rd := wire.NewReader(snap)
	n := int(rd.Uvarint())
	ob.books = make(map[string]*book, n)
	for i := 0; i < n; i++ {
		s := rd.String()
		b := &book{nextID: rd.U64()}
		read := func() []restingOrder {
			nn := int(rd.Uvarint())
			out := make([]restingOrder, 0, nn)
			for j := 0; j < nn; j++ {
				out = append(out, restingOrder{ID: rd.U64(), Price: rd.U64(), Qty: rd.U64()})
			}
			return out
		}
		b.bids = read()
		b.asks = read()
		ob.books[s] = b
	}
	ob.tops.RestoreFrom(rd)
	ob.RestoreFrom(rd)
}

// ExecCost models Liquibook-class matching (~3 us per order including the
// server path; Figure 7 shows unreplicated Liquibook at 5.56 us p90 vs
// Flip's 2.42 us).
func (ob *OrderBook) ExecCost(req []byte) sim.Duration {
	return 3100 * sim.Nanosecond
}
