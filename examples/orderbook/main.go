// orderbook replicates a Liquibook-like financial order matching engine
// with uBFT (§7.1: 32 B orders, 50% BUY / 50% SELL) and shows fills coming
// back from a Byzantine-fault-tolerant matching engine in tens of
// microseconds.
//
//	go run ./examples/orderbook
package main

import (
	"fmt"

	ubft "repro"
	"repro/internal/app"
)

func main() {
	u := ubft.New(ubft.Options{
		Seed:   3,
		NewApp: func() ubft.StateMachine { return ubft.NewOrderBook() },
	})
	defer u.Stop()

	fmt.Println("== BFT order matching engine ==")

	// Build a small book: resting sells at 101..103.
	for price := uint64(101); price <= 103; price++ {
		res, lat := must(u.InvokeSync(0, app.EncodeOrder(app.OpSell, price, 10), 20*ubft.Millisecond))
		ok, id, _, _, _ := app.DecodeOrderResp(res)
		fmt.Printf("SELL 10 @ %d -> order %d accepted=%v (%v)\n", price, id, ok, lat)
	}

	// A marketable buy crosses the book.
	res, lat := must(u.InvokeSync(0, app.EncodeOrder(app.OpBuy, 102, 15), 20*ubft.Millisecond))
	_, id, remaining, fills, _ := app.DecodeOrderResp(res)
	fmt.Printf("\nBUY 15 @ 102 -> order %d, %d unfilled, %d fill(s) in %v:\n", id, remaining, len(fills), lat)
	for _, f := range fills {
		fmt.Printf("  filled %d @ %d against order %d\n", f.Qty, f.Price, f.MakerID)
	}

	// Try to cancel the buy: it filled completely, so nothing rests and
	// the (replicated, deterministic) engine reports ok=false.
	res, lat = must(u.InvokeSync(0, app.EncodeCancel(id), 20*ubft.Millisecond))
	ok, _, _, _, _ := app.DecodeOrderResp(res)
	fmt.Printf("\nCANCEL order %d -> ok=%v (fully filled, nothing resting) (%v)\n", id, ok, lat)
	// Cancel a resting sell instead.
	res, lat = must(u.InvokeSync(0, app.EncodeCancel(3), 20*ubft.Millisecond))
	ok, _, _, _, _ = app.DecodeOrderResp(res)
	fmt.Printf("CANCEL order 3 -> ok=%v (%v)\n", ok, lat)
	fmt.Println("\nEvery order was totally ordered across 3 replicas; a malicious")
	fmt.Println("replica cannot reorder or drop trades without f+1 agreement breaking.")

	// --- sharded books: atomic cross-symbol transfers ---------------------
	// The engine implements the capability API (Router/Fragmenter/
	// TxnParticipant), so a symbol-sharded deployment gets scatter-gather
	// top-of-book reads and 2PC pair orders with zero shard-layer glue.
	const shards = 2
	fmt.Printf("\n== Symbol-sharded books (%d uBFT groups) ==\n", shards)
	d := ubft.NewSharded(ubft.ShardOptions{
		Seed:   5,
		Shards: shards,
		NewApp: func(int) ubft.StateMachine { return ubft.NewOrderBook() },
	})
	defer d.Stop()
	symOn := func(s int) []byte {
		for i := 0; ; i++ {
			sym := []byte(fmt.Sprintf("SYM%d-%d", s, i))
			if app.ShardOfKey(sym, shards) == s {
				return sym
			}
		}
	}
	a, b := symOn(0), symOn(1)
	for _, leg := range []struct {
		sym   []byte
		price uint64
	}{{a, 100}, {b, 200}} {
		if res, _, err := d.InvokeSync(0, app.EncodeOrderSym(leg.sym, app.OpSell, leg.price, 5), 20*ubft.Millisecond); err != nil || res[0] != 1 {
			panic(fmt.Sprintf("seed sell: %v %v", res, err))
		}
	}
	// A two-legged transfer: buy both symbols atomically. The symbols live
	// on different consensus groups, so this runs as a 2PC transaction.
	pair := app.EncodePairOrder(
		app.OrderLeg{Sym: a, Side: app.OpBuy, Price: 100, Qty: 5},
		app.OrderLeg{Sym: b, Side: app.OpBuy, Price: 200, Qty: 5},
	)
	res, lat = must(d.InvokeSync(0, pair, 50*ubft.Millisecond))
	fmt.Printf("cross-shard pair order (%q buy@100, %q buy@200): status %d in %v\n", a, b, res[0], lat)
	// A scatter-gathered top-of-book read across both groups: both asks
	// were consumed by the committed transfer.
	_, lat = must(d.InvokeSync(0, app.EncodeTops(a, b), 50*ubft.Millisecond))
	fmt.Printf("tops after transfer (max-leg latency %v): both asks consumed atomically\n", lat)
}

// must returns a call's result and latency, and stops the example at a
// failed call.
func must(res []byte, lat ubft.Duration, err error) ([]byte, ubft.Duration) {
	if err != nil {
		panic(err)
	}
	return res, lat
}
