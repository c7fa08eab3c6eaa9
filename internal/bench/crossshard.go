package bench

import (
	"math/rand"

	"repro/internal/app"
	"repro/internal/shard"
	"repro/internal/sim"
)

// This file drives the cross-shard experiments: S consensus groups under a
// workload where a configurable fraction of requests span two shards —
// scatter-gather reads and 2PC multi-key writes. Since the capability
// redesign the same experiment runs over every transactional application:
// the Redis-style store (MGET/RMSet), the Memcached-style store
// (KVMGet/KVMSet) and the order matching engine (OpTops/OpPair). At
// fraction 0 the Redis-style run is bit-identical to the
// single-shard-routed baseline (the mixed workload draws its cross-shard
// decisions from a separate rng stream and the driver issues through the
// same client path), so the cost of the cross-shard machinery itself is
// directly measurable.

// CrossShardResult is one row of the cross-shard mix experiment.
type CrossShardResult struct {
	Shards    int
	Frac      float64 // configured cross-shard fraction
	Completed int     // client-confirmed requests (incl. resolved transactions)
	CrossOps  int     // requests that executed across groups
	Aborted   int     // transactions resolved as aborted
	Decided   int     // slots decided across all groups
	OpsPerSec float64 // completed requests per virtual second
	Elapsed   sim.Duration
	Rec       *Recorder
}

// RunCrossShardPipelined keeps `outstanding` requests in flight per client
// (client i drives shard i, with its workload's cross-shard fraction) until
// every client completed nPerClient requests. Cross-shard requests ride the
// same Invoke path as shard-local ones: reads scatter-gather, writes run
// 2PC; an aborted transaction counts as completed-but-aborted (the client
// got a definitive outcome).
func RunCrossShardPipelined(d *shard.Deployment, wls []Workload, outstanding, nPerClient int) CrossShardResult {
	res := CrossShardResult{Shards: d.Shards(), Rec: NewRecorder(nPerClient * len(wls))}
	res.Completed, res.Elapsed = runPipelined(d, wls, outstanding, nPerClient, res.Rec,
		func(s int) {
			if s == shard.MultiShard {
				res.CrossOps++
			}
		},
		func(_, result []byte, _ sim.Duration) {
			if len(result) == 1 && result[0] == app.StatusAborted {
				res.Aborted++
			}
		})
	res.Decided = d.DecidedTotal()
	if res.Elapsed > 0 && res.Completed > 0 {
		res.OpsPerSec = float64(res.Completed) / (float64(res.Elapsed) / 1e9)
	}
	return res
}

// newCrossShardDeployment assembles an S-shard deployment of the given
// application (one driving client per shard; routing derives from the
// app's capability interfaces).
func newCrossShardDeployment(seed int64, shards int, newApp func(int) app.StateMachine) *shard.Deployment {
	return shard.New(shard.Options{
		Seed:       seed,
		Shards:     shards,
		NumClients: shards,
		NewApp:     newApp,
	})
}

// crossShardMix deploys S groups of one application and drives them with
// that application's mixed workload: frac of the requests span two shards,
// alternating scatter-gather reads and 2PC writes. newWorkload receives
// the shard-local and the cross-shard rng stream of client s.
func crossShardMix[W Workload](seed int64, shards, outstanding, nPerClient int, frac float64,
	newApp func(int) app.StateMachine, newWorkload func(shard, shards int, frac float64, rng, xrng *rand.Rand) W) CrossShardResult {
	d := newCrossShardDeployment(seed, shards, newApp)
	defer d.Stop()
	wls := make([]Workload, shards)
	for s := 0; s < shards; s++ {
		wls[s] = newWorkload(s, shards, frac,
			rand.New(rand.NewSource(seed+int64(s))),
			rand.New(rand.NewSource(seed+1000+int64(s))))
	}
	res := RunCrossShardPipelined(d, wls, outstanding, nPerClient)
	res.Frac = frac
	return res
}

func newRKV(int) app.StateMachine       { return app.NewRKV() }
func newKV(int) app.StateMachine        { return app.NewKV(0) }
func newOrderBook(int) app.StateMachine { return app.NewOrderBook() }

// CrossShardMix runs the mix over the Redis-style store (MGET/RMSet).
func CrossShardMix(seed int64, shards, outstanding, nPerClient int, frac float64) CrossShardResult {
	return crossShardMix(seed, shards, outstanding, nPerClient, frac, newRKV, app.NewCrossShardRKVWorkload)
}

// CrossShardBaseline runs the identical deployment and per-shard workload
// stream with no cross-shard requests through the plain sharded driver —
// the reference the fraction-0 mix must match bit for bit.
func CrossShardBaseline(seed int64, shards, outstanding, nPerClient int) ShardResult {
	d := newCrossShardDeployment(seed, shards, newRKV)
	defer d.Stop()
	wls := make([]Workload, shards)
	for s := 0; s < shards; s++ {
		wls[s] = app.NewShardedRKVWorkload(s, shards, rand.New(rand.NewSource(seed+int64(s))))
	}
	return RunShardedPipelined(d, wls, outstanding, nPerClient)
}

// CrossShardKVMix is the Memcached-style variant: the multi-key
// KVMGet/KVMSet surface over the paper's GET/SET mixture.
func CrossShardKVMix(seed int64, shards, outstanding, nPerClient int, frac float64) CrossShardResult {
	return crossShardMix(seed, shards, outstanding, nPerClient, frac, newKV, app.NewCrossShardKVWorkload)
}

// CrossShardOrderMix drives the sharded matching engine: symbol-scoped
// limit orders shard-locally, with frac of requests spanning two shards
// (alternating two-symbol top-of-book reads and atomic two-legged pair
// orders).
func CrossShardOrderMix(seed int64, shards, outstanding, nPerClient int, frac float64) CrossShardResult {
	return crossShardMix(seed, shards, outstanding, nPerClient, frac, newOrderBook, app.NewCrossShardOrderWorkload)
}
