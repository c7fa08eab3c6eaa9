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
//	ubft-bench -all            # everything
//
// -samples scales measurement counts (the paper uses >= 10,000); -seed
// makes runs reproducible. Everything here runs in virtual time on the
// simulated fabric; real sockets are measured by the repository benchmark
// (`go run ./bench`, the net-* workloads).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run regenerates what args select onto w and returns the exit status: 2
// for a flag error or when no experiment is selected, 0 for -h.
func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("ubft-bench", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (7, 8, 9, 10, 11)")
	table := fs.Int("table", 0, "table to regenerate (2)")
	throughput := fs.Bool("throughput", false, "run the §9 throughput experiment")
	all := fs.Bool("all", false, "run every experiment")
	seed := fs.Int64("seed", 1, "simulation seed")
	samples := fs.Int("samples", 0, "samples per configuration (0 = defaults)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ran := false
	slowSamples := *samples / 5

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
	if !ran {
		fs.Usage()
		return 2
	}
	return 0
}
