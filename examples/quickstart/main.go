// Quickstart: replicate a toy service with uBFT and measure its latency.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	ubft "repro"
)

func main() {
	// A cluster with the paper's defaults: f=1 (3 replicas), f_m=1
	// (3 memory nodes), window 256, CTBcast tail 128, fast path on.
	u := ubft.New(ubft.Options{Seed: 7})
	defer u.Stop()

	// Flip reverses its input; the client accepts a result once f+1
	// replicas agree, so the answer is Byzantine fault tolerant.
	for _, msg := range []string{"hello", "microsecond", "bft"} {
		res, lat, err := u.InvokeSync(0, []byte(msg), 10*ubft.Millisecond)
		if err != nil {
			panic(err)
		}
		fmt.Printf("flip(%q) = %q  (end-to-end %v)\n", msg, res, lat)
	}

	fast, slow, _ := u.Replicas[0].GroupStats()
	fmt.Printf("\nCTBcast deliveries at replica 0: %d fast-path, %d slow-path\n", fast, slow)
	fmt.Println("All three requests replicated without a single signature on the critical path.")
}
