// Command ubft-bench regenerates every table and figure of the paper's
// evaluation (§7) from the simulated reproduction:
//
//	ubft-bench -fig 7          # end-to-end application latency
//	ubft-bench -fig 8          # median latency vs request size, 6 systems
//	ubft-bench -fig 9          # latency breakdown fast/slow path
//	ubft-bench -fig 10         # non-equivocation mechanisms
//	ubft-bench -fig 11         # CTBcast tail vs tail latency
//	ubft-bench -table 2        # memory consumption
//	ubft-bench -throughput     # §9 throughput discussion
//	ubft-bench -readmix        # read fast path: unordered quorum reads
//	ubft-bench -all            # everything
//
// -samples scales measurement counts (the paper uses >= 10,000); -seed
// makes runs reproducible. Everything here runs in virtual time on the
// simulated fabric; real sockets are measured by the repository benchmark
// (`go run ./bench`, the net-* workloads).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (7, 8, 9, 10, 11)")
	table := flag.Int("table", 0, "table to regenerate (2)")
	throughput := flag.Bool("throughput", false, "run the §9 throughput experiment")
	readmix := flag.Bool("readmix", false, "run the read fast path experiment (50/90/99% reads, fast reads off/on)")
	all := flag.Bool("all", false, "run every experiment")
	seed := flag.Int64("seed", 1, "simulation seed")
	samples := flag.Int("samples", 0, "samples per configuration (0 = defaults)")
	flag.Parse()

	ran := false
	w := os.Stdout
	slowSamples := *samples / 5
	if *samples == 0 {
		slowSamples = 0
	}

	if *all || *fig == 7 {
		bench.PrintFig7(w, bench.Fig7(*seed, *samples))
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *fig == 8 {
		bench.PrintFig8(w, bench.Fig8(*seed, *samples, slowSamples))
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *fig == 9 {
		bench.PrintFig9(w, bench.Fig9(*seed, slowSamples))
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *fig == 10 {
		bench.PrintFig10(w, bench.Fig10(*seed, *samples, slowSamples))
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *fig == 11 {
		bench.PrintFig11(w, bench.Fig11(*seed, *samples))
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *table == 2 {
		bench.PrintTable2(w, bench.Table2(*seed))
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *throughput {
		bench.PrintThroughput(w, bench.Throughput(*seed, *samples))
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *readmix {
		bench.PrintReadMix(w, bench.ReadMixTable(*seed, *samples))
		fmt.Fprintln(w)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
