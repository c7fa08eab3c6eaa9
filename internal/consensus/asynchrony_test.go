package consensus_test

// Eventual-synchrony tests (paper §2.4): before GST the network delays and
// drops messages arbitrarily; safety must hold throughout and liveness
// must resume after GST.

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/outcome"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestLivenessResumesAfterGST(t *testing.T) {
	netOpts := simnet.RDMAOptions()
	netOpts.GST = sim.Time(5 * sim.Millisecond)
	netOpts.AsyncExtraMax = 2 * sim.Millisecond
	netOpts.AsyncDropProb = 0.3
	u := flipCluster(cluster.Options{
		Seed:          5,
		Fabric:        simnet.AsFabric(simnet.New(sim.NewEngine(5), netOpts)),
		NewApp:        func() app.StateMachine { return app.NewKV(0) },
		SlowPathDelay: 200 * sim.Microsecond,
		Window:        16,
		Tail:          8,
	})
	defer u.Stop()

	// Requests during the asynchronous period: may or may not complete.
	preGST := 0
	for i := 0; i < 5; i++ {
		key := []byte(fmt.Sprintf("pre%d", i))
		if res, _, _ := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), sim.Millisecond); res != nil {
			preGST++
		}
	}
	// Cross GST and let retransmissions drain.
	u.Eng.RunUntil(sim.Time(6 * sim.Millisecond))

	// After GST every request must complete.
	for i := 0; i < 5; i++ {
		key := []byte(fmt.Sprintf("post%d", i))
		res, _, _ := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 200*sim.Millisecond)
		if res == nil {
			t.Fatalf("post-GST request %d did not complete (liveness lost)", i)
		}
	}
	// Safety: with time to settle, replicas at equal progress agree.
	u.Eng.RunFor(100 * sim.Millisecond)
	if err := u.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	t.Logf("pre-GST completions: %d/5 (best effort); post-GST: 5/5", preGST)
}

// TestPreGSTNeverViolatesAgreement: the preGSTAgreement scenario
// (lossy_test.go) at its tier-1 seed.
func TestPreGSTNeverViolatesAgreement(t *testing.T) {
	if v := preGSTAgreement(8, t.Logf); v.Kind != outcome.Pass {
		t.Fatal(v)
	}
}
