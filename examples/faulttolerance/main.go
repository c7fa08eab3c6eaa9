// faulttolerance demonstrates uBFT's failure handling: the slow path under
// a crashed follower (the fast path needs unanimity), a memory-node crash,
// and a complete view change after the leader fails.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"

	ubft "repro"
)

func main() {
	u := ubft.New(ubft.Options{
		Seed:              11,
		ViewChangeTimeout: 500 * ubft.Microsecond,
		SlowPathDelay:     80 * ubft.Microsecond,
	})
	defer u.Stop()

	fmt.Println("== phase 0: healthy cluster, fast path ==")
	res, lat := must(u.InvokeSync(0, []byte("healthy"), 50*ubft.Millisecond))
	fmt.Printf("flip -> %q in %v\n", res, lat)

	fmt.Println("\n== phase 1: crash a follower; fallback engages the slow path ==")
	if err := u.KillReplica(2); err != nil {
		panic(err)
	}
	res, lat = must(u.InvokeSync(0, []byte("degraded"), 200*ubft.Millisecond))
	fmt.Printf("flip -> %q in %v (signatures + disaggregated memory now in use)\n", res, lat)
	if u.Replicas[0].SlowDecides > 0 {
		fmt.Printf("replica 0 slow-path decisions: %d\n", u.Replicas[0].SlowDecides)
	}

	fmt.Println("\n== phase 2: crash the leader too? That would exceed f=1. ==")
	fmt.Println("Instead: heal the follower scenario by restarting fresh and crashing the leader only.")

	u2 := ubft.New(ubft.Options{
		Seed:              12,
		ViewChangeTimeout: 500 * ubft.Microsecond,
		SlowPathDelay:     80 * ubft.Microsecond,
	})
	defer u2.Stop()
	must(u2.InvokeSync(0, []byte("warm"), 50*ubft.Millisecond))
	if err := u2.KillReplica(0); err != nil {
		panic(err)
	}
	res, lat = must(u2.InvokeSync(0, []byte("new-leader"), 500*ubft.Millisecond))
	fmt.Printf("after leader crash: flip -> %q in %v\n", res, lat)
	fmt.Printf("replica 1 view=%d, replica 2 view=%d (round-robin rotation)\n",
		u2.Replicas[1].View(), u2.Replicas[2].View())
	fmt.Printf("view changes observed at replica 1: %d\n", u2.Replicas[1].ViewChanges)
}

// must returns a call's result and latency, and stops the example at a
// failed call.
func must(res []byte, lat ubft.Duration, err error) ([]byte, ubft.Duration) {
	if err != nil {
		panic(err)
	}
	return res, lat
}
