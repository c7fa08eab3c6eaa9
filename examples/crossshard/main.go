// crossshard demonstrates multi-key operations spanning consensus groups:
// scatter-gather MGETs (one sub-read per touched group, merged back in key
// order, max-leg latency), 2PC-style multi-key writes (prepare/lock in every
// participant group, durable decision in the deterministic coordinator
// group, then commit), and abort-on-timeout when a participant group stalls
// mid-prepare — the healthy groups release their locks and stay writable.
//
//	go run ./examples/crossshard
package main

import (
	"fmt"

	ubft "repro"
	"repro/internal/app"
)

const shards = 4

func main() {
	fmt.Println("== Cross-shard multi-key operations: 4 uBFT groups, Redis-style store ==")

	d := newDeployment(1)
	defer d.Stop()

	// One key per shard, so every multi-key op below spans groups.
	keys := make([][]byte, shards)
	for s := range keys {
		keys[s] = keyOn(s)
	}

	// --- 2PC multi-key write across all four groups -----------------------
	pairs := make([]app.Pair, shards)
	for s, k := range keys {
		pairs[s] = app.Pair{Key: k, Val: []byte(fmt.Sprintf("value-%d", s))}
	}
	res, lat, err := d.InvokeSync(0, app.EncodeRMSet(pairs...), 50*ubft.Millisecond)
	check("RMSet", res, err)
	fmt.Printf("\n2PC write of %d keys across %d groups: status %d in %v\n", len(pairs), shards, res[0], lat)
	fmt.Println("  (prepare+lock per group -> decision logged in coordinator group 0 -> commit)")

	// --- scatter-gather MGET over every group -----------------------------
	res, lat, err = d.InvokeSync(0, app.EncodeRMGet(keys...), 50*ubft.Millisecond)
	check("MGET", res, err)
	fmt.Printf("\nScatter-gather MGET of %d keys: status %d, max-leg latency %v\n", len(keys), res[0], lat)
	printMerged(res, keys)

	// --- abort-on-timeout: a stalled participant cannot wedge the rest ----
	fmt.Println("\nStalling group 3 and writing {group0, group3} keys transactionally...")
	d2 := newDeployment(2)
	defer d2.Stop()
	for _, r := range d2.Groups[3].Replicas {
		r.Stop()
	}
	res, lat, err = d2.InvokeSync(0, app.EncodeRMSet(
		app.Pair{Key: keyOn(0), Val: []byte("never")},
		app.Pair{Key: keyOn(3), Val: []byte("never")},
	), 50*ubft.Millisecond)
	check("RMSet with stalled participant", res, err)
	fmt.Printf("  outcome: status %d (RAborted=%d) after the %v prepare timeout\n", res[0], app.RAborted, lat)
	d2.Eng.RunFor(10 * ubft.Millisecond) // let the aborts release the locks
	res, _, err = d2.InvokeSync(0, app.EncodeRSet(keyOn(0), []byte("fine")), 50*ubft.Millisecond)
	check("RSet after abort", res, err)
	fmt.Printf("  healthy group 0 writable again after abort: status %d\n", res[0])

	fmt.Println("\nThroughput at 10% cross-shard requests is measured and gated by: go run ./bench -workload sim-shard4-txn")
}

func newDeployment(seed int64) *ubft.ShardDeployment {
	// Routing and cross-shard execution derive from RKV's capability
	// interfaces (Router/Fragmenter/TxnParticipant) — no routing glue.
	return ubft.NewSharded(ubft.ShardOptions{
		Seed:   seed,
		Shards: shards,
		NewApp: func(int) ubft.StateMachine { return app.NewRKV() },
	})
}

// keyOn returns a probe key hashing onto shard s.
func keyOn(s int) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("demo-%d-%02d", s, i))
		if app.ShardOfKey(k, shards) == s {
			return k
		}
	}
}

func check(what string, res []byte, err error) {
	if err != nil || len(res) == 0 {
		panic(fmt.Sprintf("%s failed: res=%v err=%v", what, res, err))
	}
}

// printMerged decodes the merged MGET response for display.
func printMerged(res []byte, keys [][]byte) {
	reads, _ := app.AppendKeyedReads(nil, res)
	for i, e := range reads {
		if e.Found {
			fmt.Printf("    %-14q = %q\n", keys[i], e.Value)
		} else {
			fmt.Printf("    %-14q = <miss>\n", keys[i])
		}
	}
}
