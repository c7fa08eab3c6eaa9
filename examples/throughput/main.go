// throughput demonstrates the §9 discussion: uBFT's closed-loop throughput
// is roughly the inverse of its latency; interleaving two requests doubles
// it; and deeper pipelines gain again from this repository's batching
// extension (which the paper names but does not implement): the leader keeps
// one proposal in flight and packs whatever queued behind it into the next
// consensus slot, so there is nothing to switch on.
//
//	go run ./examples/throughput
package main

import (
	"fmt"
	"math/rand"
	"slices"

	ubft "repro"
)

// run keeps depth random 32 B requests in flight from one client until 600
// complete, with Client.Invoke and SyncWait, and prints the throughput in
// virtual time and the median latency.
func run(name string, depth int) {
	const requests = 600
	u := ubft.New(ubft.Options{Seed: 1})
	defer u.Stop()
	rng := rand.New(rand.NewSource(1))
	var lats []ubft.Duration
	issued := 0
	var pump func()
	pump = func() {
		for issued-len(lats) < depth && issued < requests {
			issued++
			payload := make([]byte, 32)
			rng.Read(payload)
			u.Client(0).Invoke(payload, func(_ []byte, lat ubft.Duration) { lats = append(lats, lat); pump() })
		}
	}
	start := u.Eng.Now()
	pump()
	if err := ubft.SyncWait(u.Eng, requests*5*ubft.Millisecond, func() bool { return len(lats) == requests }); err != nil {
		panic(err)
	}
	slices.Sort(lats)
	fmt.Printf("%-28s %12.1f %12v\n", name, requests/(float64(u.Eng.Now().Sub(start))/1e9)/1000, lats[requests/2-1])
}

func main() {
	fmt.Println("== uBFT throughput: 32 B requests, closed loop ==")
	fmt.Printf("%-28s %12s %12s\n", "configuration", "kops/s", "p50 latency")
	run("1 outstanding", 1)
	run("2 outstanding (paper ~2x)", 2)
	run("8 outstanding (shared slots)", 8)

	fmt.Println("\nThe paper reports ~91 kops at depth 1 and a 2x gain from")
	fmt.Println("interleaving (§9); batching, its named-but-unimplemented next step,")
	fmt.Println("is what the depth-8 row adds: requests that queue behind the slot in")
	fmt.Println("flight share the next one.")
}
