// Command bench is the repository's benchmark: four workloads on the
// simulated fabric, which BENCHMARK.json lists and the driver judges, two
// diagnostic ones over real sockets against a fleet of ubft-node processes,
// the end-to-end metrics a client of the system sees, and an outside-in
// traced run that attributes them layer by layer. It drives the system only
// through the layers' public functions and checks every answer; see
// README.md for the metric list and the procedures.
//
//	go run ./bench -seed 1                       every workload, end to end
//	go run ./bench -seed 1 -workload net-kv-d8   one workload
//	go run ./bench -seed 1 -trace 1              the traced, per-layer run
//	go run ./bench -seed 1 -trace both -json out.json
//	go run ./bench -seed 1 -compare old.json
//	go run ./bench -agree a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runCfg is what one run of one workload is given.
type runCfg struct {
	seed   int64
	window time.Duration // how long the run measures
	traced bool
	outDir string  // trace files and the built node binary
	rigs   metrics // the rig metrics of this invocation (traced runs)
}

// result is the outcome of one run of one workload.
type result struct {
	workload  string
	traced    bool
	metrics   metrics
	attempted int
	failed    int
	traceFile string
}

// resultLine is the last line a run prints: the contract with the driver.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// specsFor returns the metrics a run of w can report: the end-to-end ones
// untraced, the per-layer ones traced.
func specsFor(w workloadSpec, traced bool) []metricSpec {
	switch {
	case !traced:
		return endToEnd
	case w.Net:
		return append(append([]metricSpec{}, perLayer...), perLayerNet...)
	}
	return perLayer
}

func printMetric(s metricSpec, v value) {
	fmt.Printf("  %-32s %14.6g %-8s n=%d\n", s.Name, v.V, s.Unit, v.N)
}

// print writes the metrics the run measured by name with unit and sample
// count (a metric that does not apply to the workload is left out, never
// printed as 0), then the result line. The result line is the driver's: it
// must hold every name of the list, so there the rig metrics of the
// invocation are repeated and a name the workload does not report reads 0.
func (r *result) print(w workloadSpec, rigs metrics) error {
	mode := "end to end, tracing off"
	if r.traced {
		mode = "per layer, traced"
	}
	fmt.Printf("%s (%s): attempted %d, failed %d, failed_share %g\n",
		r.workload, mode, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, s := range specsFor(w, r.traced) {
		v, ok := r.metrics[s.Name]
		if ok {
			printMetric(s, v)
		} else {
			v = rigs[s.Name]
		}
		line.Metrics[s.Name] = metricJSON{Value: v.V, Unit: s.Unit}
	}
	if r.traceFile != "" {
		fmt.Printf("  spans written to %s\n", r.traceFile)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runWorkload runs one workload once, traced or not.
func runWorkload(w workloadSpec, cfg runCfg) (*result, error) {
	if w.Net {
		return runNet(w.Name, cfg)
	}
	return runSim(w.Name, cfg)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all of them)")
		seed     = flag.Int64("seed", 1, "seeds the request generators and the deployment")
		seconds  = flag.Int("seconds", 10, "how long each run measures")
		trace    = flag.String("trace", "0", "0: end-to-end metrics with tracing off; 1: the traced run and its per-layer metrics; both: one after the other")
		jsonOut  = flag.String("json", "", "write the result set (a ledger row) to this file")
		compare  = flag.String("compare", "", "after the run, print per-workload, per-metric deltas against this older result set, judged by the bounds")
		agree    = flag.Bool("agree", false, "check that the two result sets named as arguments agree within the bounds")
	)
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -agree needs two result-set files")
			return 2
		}
		return agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	var old *resultSet
	if *compare != "" {
		var err error
		if old, err = readResultSet(*compare); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}

	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	todo := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []workloadSpec{w}
	}

	cfg := runCfg{seed: *seed, window: time.Duration(*seconds) * time.Second, outDir: filepath.Join("bench", "out")}
	set := newResultSet(*seed, *seconds)
	if modes[len(modes)-1] {
		// The rigs do not depend on the workload: once per invocation.
		cfg.rigs = rigMetrics(*seed)
		fmt.Println("rigs (per layer, the same for every workload)")
		for _, s := range perLayer {
			if v, ok := cfg.rigs[s.Name]; ok {
				printMetric(s, v)
			}
		}
		set.Rigs = ledgerMetrics(perLayer, cfg.rigs)
	}
	status := 0
	for _, w := range todo {
		for _, traced := range modes {
			cfg.traced = traced
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
				return 1
			}
			if err := res.print(w, cfg.rigs); err != nil {
				fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
				return 1
			}
			if res.failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: workload %s: %d of %d operations failed\n", w.Name, res.failed, res.attempted)
				status = 1
			}
			set.add(w, res)
		}
	}
	if *jsonOut != "" {
		if err := set.write(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if old != nil && !compareSets(os.Stdout, old, set) && status == 0 {
		status = 1
	}
	return status
}
