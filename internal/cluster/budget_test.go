package cluster_test

import (
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/shard"
)

// retainedObjects returns how many heap objects build's result keeps alive.
func retainedObjects(build func() any) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	return int(after.HeapObjects) - int(before.HeapObjects)
}

// TestSetupObjectBudget bounds what a deployment's constructors leave on the
// heap. A structure made per ring slot, per register or per tail entry at
// set-up multiplies by thousands (one closure per ring slot was 52% of a
// single group's 23,529 objects, a register handle per peer slot another
// 15%; a 4-shard deployment held 94,094), so it shows here long before it
// shows as heap_live_mib. Memory nodes hold one range per writer and group,
// not one record per register, and a key pair is derived at its first use:
// measured 785, 2,350 and 3,131 objects (4,235, 18,278 and 16,917 with a
// record per register and every key derived up front); budgets 15% above.
func TestSetupObjectBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget int
		build  func() any
	}{
		{"cluster.Build default", 910, func() any {
			u, err := cluster.Build(cluster.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return u
		}},
		{"cluster.Build F=Fm=2", 2_700, func() any {
			u, err := cluster.Build(cluster.Options{Seed: 1, F: 2, Fm: 2})
			if err != nil {
				t.Fatal(err)
			}
			return u
		}},
		{"shard.Build RKV S=4", 3_600, func() any {
			d, err := shard.Build(shard.Options{Seed: 1, Shards: 4,
				NewApp: func(int) app.StateMachine { return app.NewRKV() }})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		n := retainedObjects(c.build)
		t.Logf("%s retains %d heap objects (budget %d)", c.name, n, c.budget)
		if n > c.budget {
			t.Errorf("%s retains %d heap objects, budget is %d", c.name, n, c.budget)
		}
	}
}
