// Command ubft-demo walks through uBFT's headline behaviours in one run:
// microsecond-scale replication of a key-value store, tolerance of a
// crashed memory node, and a full view change after the leader fails.
package main

import (
	"fmt"
	"io"
	"os"

	ubft "repro"
	"repro/internal/app"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ubft-demo:", err)
		os.Exit(1)
	}
}

// run narrates the demo to w and stops at the first request that does not
// complete, returning why.
func run(w io.Writer) error {
	fmt.Fprintln(w, "== uBFT demo: 3 replicas, 3 memory nodes, 1 client ==")
	u := ubft.New(ubft.Options{
		Seed:              42,
		NewApp:            func() ubft.StateMachine { return ubft.NewKV(0) },
		ViewChangeTimeout: 500 * ubft.Microsecond,
		SlowPathDelay:     100 * ubft.Microsecond,
	})
	defer u.Stop()
	set := func(key, val string, maxWait ubft.Duration) error {
		res, lat, err := u.InvokeSync(0, app.EncodeKVSet([]byte(key), []byte(val)), maxWait)
		if err == nil {
			fmt.Fprintf(w, "SET %-8s -> status=%d in %v\n", key, res[0], lat)
		}
		return err
	}

	fmt.Fprintln(w, "\n-- phase 1: fast-path replication --")
	for i := 0; i < 3; i++ {
		if err := set(fmt.Sprintf("user:%d", i), "alive", 50*ubft.Millisecond); err != nil {
			return err
		}
	}
	res, lat, err := u.InvokeSync(0, app.EncodeKVGet([]byte("user:1")), 50*ubft.Millisecond)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GET user:1  -> %q in %v (Byzantine-tolerant, f=1)\n", res[1:], lat)

	fmt.Fprintln(w, "\n-- phase 2: crash a memory node (f_m = 1 tolerated) --")
	if err := u.KillMemNode(0); err != nil {
		return err
	}
	if err := set("after-mem-crash", "ok", 50*ubft.Millisecond); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n-- phase 3: crash the leader (view change) --")
	if err := u.KillReplica(0); err != nil {
		return err
	}
	if err := set("after-leader-crash", "ok", 500*ubft.Millisecond); err != nil {
		return err
	}
	for _, i := range []int{1, 2} {
		fmt.Fprintf(w, "replica %d now in view %d (leader rotated)\n", i, u.Replicas[i].View())
	}

	fmt.Fprintln(w, "\n-- state agreement across survivors --")
	s1, s2 := u.Apps[1].Snapshot(), u.Apps[2].Snapshot()
	fmt.Fprintf(w, "replica1 state == replica2 state: %v\n", string(s1) == string(s2))
	return nil
}
