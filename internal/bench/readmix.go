package bench

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/app"
	"repro/internal/shard"
	"repro/internal/sim"
)

// This file drives the read fast path experiment: a read-dominant serving
// workload (the ROADMAP's "millions of users" north star is read-mostly)
// at configurable read fractions, with the unordered f+1 quorum read path
// switched on or off. With FastReads=false every read pays the full
// ordering pipeline — leader proposal, CTBcast, certification, execution
// slot — exactly like the seed; with FastReads=true reads cost one round
// trip plus f+1 matching digests, and only the write minority consumes
// consensus slots. The driver mirrors runPipelined exactly (same issue
// order, same closed loop), so the FastReads=false run is bit-identical to
// the plain sharded driver — gated by TestReadMixFastOffMatchesPlainDriver.

// ReadMixResult is one row of the read-mix experiment.
type ReadMixResult struct {
	Label     string // workload name for the table
	Shards    int
	ReadFrac  float64 // configured read fraction
	FastReads bool
	Strong    bool // reads ride the linearizable 2f+1 strong mode
	Completed int
	Reads     int    // requests classified read-only (Fragmenter.ReadOnly)
	FastOK    uint64 // reads answered by an unordered f+1 quorum
	StrongOK  uint64 // reads answered by the full 2f+1 strong quorum
	Widens    uint64 // reads that had to ask beyond their first f+1 replicas
	Fallbacks uint64 // reads that fell back to the ordered path
	Decided   int    // slots decided across all groups (writes + fallbacks)
	OpsPerSec float64
	Elapsed   sim.Duration
	Rec       *Recorder // all requests
	ReadRec   *Recorder // read latencies
	WriteRec  *Recorder // write latencies
}

// runReadMix drives the experiment through the shared runPipelined core
// (identical issue order and completion plumbing — the foundation of the
// FastReads=false bit-identity gate), splitting latencies per request
// class via the application's read classifier.
func runReadMix(d *shard.Deployment, wls []Workload, readOnly func([]byte) bool, outstanding, nPerClient int) ReadMixResult {
	res := ReadMixResult{
		Shards:   d.Shards(),
		Rec:      NewRecorder(nPerClient * len(wls)),
		ReadRec:  NewRecorder(nPerClient * len(wls)),
		WriteRec: NewRecorder(nPerClient * len(wls)),
	}
	res.Completed, res.Elapsed = runPipelined(d, wls, outstanding, nPerClient, res.Rec, nil,
		func(req, _ []byte, l sim.Duration) {
			if readOnly(req) {
				res.Reads++
				res.ReadRec.Add(l)
			} else {
				res.WriteRec.Add(l)
			}
		})
	res.Decided = d.DecidedTotal()
	for _, c := range d.Clients {
		fast, fb := c.ReadStats()
		res.FastOK += fast
		res.StrongOK += c.StrongReadStats()
		res.Widens += c.ReadWidens()
		res.Fallbacks += fb
	}
	if res.Elapsed > 0 && res.Completed > 0 {
		res.OpsPerSec = float64(res.Completed) / (float64(res.Elapsed) / 1e9)
	}
	return res
}

// readMix deploys S groups of one application in the given read mode and
// drives them with that application's read-mix workload, classifying reads
// with the application prototype's own Fragmenter.ReadOnly.
func readMix[W Workload](label string, seed int64, shards, outstanding, nPerClient int, readFrac float64, fast, strong bool,
	newApp func(int) app.StateMachine, newWorkload func(shard, shards int, readFrac float64, rng *rand.Rand) W) ReadMixResult {
	d := shard.New(shard.Options{
		Seed:        seed,
		Shards:      shards,
		NumClients:  shards,
		NewApp:      newApp,
		FastReads:   fast,
		StrongReads: strong,
	})
	defer d.Stop()
	wls := make([]Workload, shards)
	for s := 0; s < shards; s++ {
		wls[s] = newWorkload(s, shards, readFrac, rand.New(rand.NewSource(seed+int64(s))))
	}
	res := runReadMix(d, wls, newApp(0).(app.Fragmenter).ReadOnly, outstanding, nPerClient)
	res.Label, res.ReadFrac, res.FastReads, res.Strong = label, readFrac, fast, strong
	return res
}

// ReadMix runs the Memcached-style read mix: KVMGet reads over previously
// written keys at the given fraction, KVSet writes otherwise.
func ReadMix(seed int64, shards, outstanding, nPerClient int, readFrac float64, fast bool) ReadMixResult {
	return readMix("kv", seed, shards, outstanding, nPerClient, readFrac, fast, false, newKV, app.NewReadMixKVWorkload)
}

// ReadMixPoint runs the point-read mix: single-key KVGet reads at the
// given fraction — the smallest fast-path request, no fragment/merge
// framing at either end — against the same KVSet write stream.
func ReadMixPoint(seed int64, shards, outstanding, nPerClient int, readFrac float64, fast bool) ReadMixResult {
	return readMix("kv-point", seed, shards, outstanding, nPerClient, readFrac, fast, false, newKV, app.NewPointReadMixKVWorkload)
}

// ReadMixStrong runs the point-read mix in the linearizable strong mode:
// acceptance needs all 2f+1 replicas to agree on (result, version), so
// the row prices the strong guarantee against the f+1 fast path above it.
func ReadMixStrong(seed int64, shards, outstanding, nPerClient int, readFrac float64) ReadMixResult {
	return readMix("kv-strong", seed, shards, outstanding, nPerClient, readFrac, false, true, newKV, app.NewPointReadMixKVWorkload)
}

// ReadMixOrder runs the matching-engine read mix: OpTops top-of-book
// reads at the given fraction, symbol-scoped limit orders otherwise. The
// order book's cheap execution (~3us vs the KV stores' ~15us server path)
// makes it the headline case: ordered throughput is consensus-bound, so
// skipping consensus for the read majority buys the largest factor.
func ReadMixOrder(seed int64, shards, outstanding, nPerClient int, readFrac float64, fast bool) ReadMixResult {
	return readMix("orderbook", seed, shards, outstanding, nPerClient, readFrac, fast, false, newOrderBook, app.NewReadMixOrderWorkload)
}

// ReadMixTable runs the full experiment grid — both apps at 50/90/99%
// reads with fast reads off and on, plus the point-read and strong-read
// rows at the headline 90% fraction — for the CLI.
func ReadMixTable(seed int64, samples int) []ReadMixResult {
	if samples == 0 {
		samples = 200
	}
	var rows []ReadMixResult
	for _, frac := range []float64{0.50, 0.90, 0.99} {
		for _, fast := range []bool{false, true} {
			rows = append(rows, ReadMix(seed, 2, 4, samples, frac, fast))
		}
	}
	for _, frac := range []float64{0.50, 0.90, 0.99} {
		for _, fast := range []bool{false, true} {
			rows = append(rows, ReadMixOrder(seed, 2, 4, samples, frac, fast))
		}
	}
	for _, fast := range []bool{false, true} {
		rows = append(rows, ReadMixPoint(seed, 2, 4, samples, 0.90, fast))
	}
	rows = append(rows, ReadMixStrong(seed, 2, 4, samples, 0.90))
	return rows
}

// PrintReadMix renders the experiment table.
func PrintReadMix(w io.Writer, rows []ReadMixResult) {
	fmt.Fprintln(w, "Read fast path: unordered quorum reads vs the full ordering pipeline")
	fmt.Fprintln(w, "workload   read%  mode     kops/vs   read-p50   write-p50  fast-ok   strong    widen  fallback")
	for _, r := range rows {
		mode := "ordered"
		switch {
		case r.Strong:
			mode = "strong"
		case r.FastReads:
			mode = "fast"
		}
		fmt.Fprintf(w, "%-9s  %4.0f%%  %-7s %8.1f  %8.1fus %8.1fus  %7d  %7d  %7d  %8d\n",
			r.Label, r.ReadFrac*100, mode, r.OpsPerSec/1000,
			r.ReadRec.Percentile(50).Micros(), r.WriteRec.Percentile(50).Micros(),
			r.FastOK, r.StrongOK, r.Widens, r.Fallbacks)
	}
}
