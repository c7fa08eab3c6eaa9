package shard_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestStoppedDeploymentIsSilent: stopping a two-shard deployment with fast
// reads and ordered writes in flight crash-stops every replica. From then on
// no frame leaves any replica (no ring acknowledgement, no staged ring write,
// no queued read reply), and the engine runs dry.
func TestStoppedDeploymentIsSilent(t *testing.T) {
	const shards = 2
	d := fastDeployment(3, shards, 2, true)
	for c := range d.Clients {
		for i := 0; i < 4; i++ {
			k := keyOnShard(t, i%shards, shards, c)
			req := app.EncodeKVMGet(k)
			if i < 2 {
				req = app.EncodeKVSet(k, []byte{byte(i)})
			}
			if _, err := d.Client(c).Invoke(req, func([]byte, sim.Duration) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Eng.RunFor(5 * sim.Microsecond)
	if d.Client(0).Pending()+d.Client(1).Pending() == 0 {
		t.Fatal("nothing in flight at Stop")
	}
	replica := map[ids.ID]bool{}
	for _, g := range d.Groups {
		for _, id := range g.ReplicaIDs {
			replica[id] = true
		}
	}
	sent := 0
	d.Net.SetRule(func(from, _ ids.ID, _ []byte) (simnet.Fate, sim.Duration) {
		if replica[from] {
			sent++
		}
		return simnet.Deliver, 0
	})
	d.Stop()
	for steps := 0; d.Eng.Step(); steps++ {
		if steps == 1_000_000 {
			t.Fatal("the engine never ran dry after Stop")
		}
	}
	if sent != 0 {
		t.Fatalf("%d frames left a stopped replica", sent)
	}
}
