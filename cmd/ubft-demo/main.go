// Command ubft-demo walks through uBFT's headline behaviours in one run:
// microsecond-scale replication of a key-value store, tolerance of a
// crashed memory node, and a full view change after the leader fails.
package main

import (
	"fmt"

	ubft "repro"
	"repro/internal/app"
)

func main() {
	fmt.Println("== uBFT demo: 3 replicas, 3 memory nodes, 1 client ==")
	u := ubft.New(ubft.Options{
		Seed:              42,
		NewApp:            func() ubft.StateMachine { return ubft.NewKV(0) },
		ViewChangeTimeout: 500 * ubft.Microsecond,
		SlowPathDelay:     100 * ubft.Microsecond,
	})
	defer u.Stop()

	fmt.Println("\n-- phase 1: fast-path replication --")
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("user:%d", i)
		res, lat := u.InvokeSync(0, app.EncodeKVSet([]byte(key), []byte("alive")), 50*ubft.Millisecond)
		fmt.Printf("SET %-8s -> status=%d in %v\n", key, res[0], lat)
	}
	res, lat := u.InvokeSync(0, app.EncodeKVGet([]byte("user:1")), 50*ubft.Millisecond)
	fmt.Printf("GET user:1  -> %q in %v (Byzantine-tolerant, f=1)\n", res[1:], lat)

	fmt.Println("\n-- phase 2: crash a memory node (f_m = 1 tolerated) --")
	u.MemNodes[0].Crash()
	res, lat = u.InvokeSync(0, app.EncodeKVSet([]byte("after-mem-crash"), []byte("ok")), 50*ubft.Millisecond)
	fmt.Printf("SET after-mem-crash -> status=%d in %v\n", res[0], lat)

	fmt.Println("\n-- phase 3: crash the leader (view change) --")
	u.Net.Node(u.ReplicaIDs[0]).Proc().Crash()
	res, lat = u.InvokeSync(0, app.EncodeKVSet([]byte("after-leader-crash"), []byte("ok")), 500*ubft.Millisecond)
	if res == nil {
		fmt.Println("request failed!")
		return
	}
	fmt.Printf("SET after-leader-crash -> status=%d in %v\n", res[0], lat)
	for _, i := range []int{1, 2} {
		fmt.Printf("replica %d now in view %d (leader rotated)\n", i, u.Replicas[i].View())
	}

	fmt.Println("\n-- state agreement across survivors --")
	s1, s2 := u.Apps[1].Snapshot(), u.Apps[2].Snapshot()
	fmt.Printf("replica1 state == replica2 state: %v\n", string(s1) == string(s2))
}
