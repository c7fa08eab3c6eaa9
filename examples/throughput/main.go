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

	ubft "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
)

func main() {
	fmt.Println("== uBFT throughput: 32 B requests, closed loop ==")
	fmt.Printf("%-28s %12s %12s\n", "configuration", "kops/s", "p50 latency")

	run := func(name string, opts cluster.Options, depth int) {
		s := bench.NewUBFTSystem(opts)
		defer s.Stop()
		wl := bench.NewFlipWorkload(32, rand.New(rand.NewSource(1)))
		ops, rec := bench.RunPipelined(s, wl, depth, 600)
		p50 := ubft.Duration(0)
		if rec.Count() > 0 {
			p50 = rec.Median()
		}
		fmt.Printf("%-28s %12.1f %12v\n", name, ops/1000, p50)
	}

	run("1 outstanding", cluster.Options{Seed: 1}, 1)
	run("2 outstanding (paper ~2x)", cluster.Options{Seed: 1}, 2)
	run("8 outstanding (shared slots)", cluster.Options{Seed: 1}, 8)

	fmt.Println("\nThe paper reports ~91 kops at depth 1 and a 2x gain from")
	fmt.Println("interleaving (§9); batching, its named-but-unimplemented next step,")
	fmt.Println("is what the depth-8 row adds: requests that queue behind the slot in")
	fmt.Println("flight share the next one.")
}
