// kvstore runs a small key-value workload (SETs of 32 B values and GETs
// over a few 16 B keys) against a uBFT-replicated key-value store and
// prints its latency distribution, next to an unreplicated run of the
// same store — the Figure 7 comparison in miniature. The paper's
// Memcached mixture itself is in `go run ./cmd/ubft-bench -fig 7`.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"slices"

	ubft "repro"
	"repro/internal/app"
)

// closedLoop issues 500 requests one at a time, alternating a SET and a GET
// over 8 keys, and returns the sorted latencies.
func closedLoop(invoke func([]byte, ubft.Duration) ([]byte, ubft.Duration, error)) []ubft.Duration {
	lats := make([]ubft.Duration, 500)
	for i := range lats {
		key := fmt.Appendf(nil, "key-%012d", i/2%8)
		req := app.EncodeKVGet(key)
		if i%2 == 0 {
			req = app.EncodeKVSet(key, fmt.Appendf(nil, "value-%026d", i))
		}
		_, lat, err := invoke(req, 500*ubft.Millisecond)
		if err != nil {
			panic(err)
		}
		lats[i] = lat
	}
	slices.Sort(lats)
	return lats
}

func main() {
	fmt.Println("== Key-value store under uBFT vs unreplicated ==")
	newKV := func() ubft.StateMachine { return ubft.NewKV(0) }
	u := ubft.New(ubft.Options{Seed: 1, NewApp: newKV})
	defer u.Stop()
	repl := closedLoop(func(p []byte, w ubft.Duration) ([]byte, ubft.Duration, error) { return u.InvokeSync(0, p, w) })
	unrepl := closedLoop(ubft.NewUnreplicated(1, newKV).InvokeSync)

	p50 := func(l []ubft.Duration) ubft.Duration { return l[len(l)/2] }
	p90 := func(l []ubft.Duration) ubft.Duration { return l[len(l)*9/10] }
	fmt.Printf("unreplicated: p50=%v p90=%v\n", p50(unrepl), p90(unrepl))
	fmt.Printf("uBFT (f=1):   p50=%v p90=%v\n", p50(repl), p90(repl))
	fmt.Printf("\nByzantine fault tolerance costs %v at the 90th percentile\n", p90(repl)-p90(unrepl))
	fmt.Println("(the paper reports ~10us of overhead for Memcached, Figure 7)")
}
