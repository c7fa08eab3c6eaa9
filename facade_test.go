package ubft

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
)

// Tests of the public façade: everything a downstream user touches.

func TestFacadeQuickstart(t *testing.T) {
	u := New(Options{Seed: 1})
	defer u.Stop()
	res, lat, err := u.InvokeSync(0, []byte("facade"), 10*Millisecond)
	if err != nil || string(res) != "edacaf" {
		t.Fatalf("result = %q, %v", res, err)
	}
	if lat <= 0 || lat > 100*Microsecond {
		t.Fatalf("latency = %v", lat)
	}
}

func TestFacadeApplications(t *testing.T) {
	if NewFlip() == nil || NewKV(0) == nil || NewRKV() == nil || NewOrderBook() == nil {
		t.Fatal("application constructors returned nil")
	}
	var sm StateMachine = NewKV(4)
	if sm.Snapshot() == nil {
		t.Fatal("StateMachine interface not satisfied usefully")
	}
}

// TestFacadeCapabilities: the shipped applications implement the layered
// capability interfaces, Route derives shard placement from them, and the
// deprecated RouteFunc-era helpers still answer through the new path.
func TestFacadeCapabilities(t *testing.T) {
	for name, sm := range map[string]StateMachine{
		"kv": NewKV(0), "rkv": NewRKV(), "orderbook": NewOrderBook(),
	} {
		if _, ok := sm.(Router); !ok {
			t.Fatalf("%s does not implement Router", name)
		}
		if _, ok := sm.(Fragmenter); !ok {
			t.Fatalf("%s does not implement Fragmenter", name)
		}
		if _, ok := sm.(TxnParticipant); !ok {
			t.Fatalf("%s does not implement TxnParticipant", name)
		}
	}
	// Flip opts out of every capability: it cannot be sharded.
	if _, ok := NewFlip().(Router); ok {
		t.Fatal("Flip unexpectedly implements Router")
	}

	const shards = 4
	key := []byte("route-probe")
	if s, err := Route(NewRKV(), app.EncodeRGet(key), shards); err != nil || s != app.ShardOfKey(key, shards) {
		t.Fatalf("Route = (%d, %v), want shard %d", s, err, app.ShardOfKey(key, shards))
	}
	// A custom application built on the exported LockTable participates in
	// the generic 2PC envelope without any shard-layer glue.
	installed := false
	lt := NewLockTable(
		func(frag []byte) ([][]byte, error) { return [][]byte{frag}, nil },
		func(frag []byte) []byte { installed = true; return []byte("receipt") },
		func(req []byte) []byte { return req },
	)
	if st := lt.Prepare(1, 0, []byte("k")); st != app.StatusOK {
		t.Fatalf("custom Prepare: %d", st)
	}
	if st, receipt := lt.Commit(1); st != app.StatusOK || !installed || string(receipt) != "receipt" {
		t.Fatalf("custom Commit: status=%d installed=%v receipt=%q", st, installed, receipt)
	}
}

func TestFacadeBaselines(t *testing.T) {
	un := NewUnreplicated(1, nil)
	if res, _, _ := un.InvokeSync([]byte("ab"), 10*Millisecond); string(res) != "ba" {
		t.Fatalf("unreplicated: %q", res)
	}
	mu := NewMu(cluster.MuOptions{Seed: 1})
	defer mu.Stop()
	if res, _, _ := mu.InvokeSync([]byte("ab"), 10*Millisecond); string(res) != "ba" {
		t.Fatalf("mu: %q", res)
	}
	mb := NewMinBFT(cluster.MinBFTOptions{Seed: 1, Mode: MinBFTHMAC})
	if res, _, _ := mb.InvokeSync([]byte("ab"), 100*Millisecond); string(res) != "ba" {
		t.Fatalf("minbft: %q", res)
	}
}

// TestDefaultDeploymentSurvivesLeaderCrash: a deployment built with default
// options suspects its leader, so losing the view-0 leader costs one view
// change and not the service — for the single-group cluster and for the
// sharded deployment alike.
func TestDefaultDeploymentSurvivesLeaderCrash(t *testing.T) {
	survivorsAgree := func(t *testing.T, reps []*consensus.Replica, apps []StateMachine) {
		t.Helper()
		for _, i := range []int{1, 2} {
			if v := reps[i].View(); v == 0 {
				t.Errorf("replica %d still in view 0", i)
			}
		}
		if string(apps[1].Snapshot()) != string(apps[2].Snapshot()) {
			t.Error("survivors hold different application state")
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("facade/seed%d", seed), func(t *testing.T) {
			u := New(Options{Seed: seed})
			defer u.Stop()
			for i := 0; i < 5; i++ {
				if _, _, err := u.InvokeSync(0, []byte("warm"), 10*Millisecond); err != nil {
					t.Fatalf("warm-up op %d: %v", i, err)
				}
			}
			if err := u.KillReplica(0); err != nil {
				t.Fatal(err)
			}
			res, lat, err := u.InvokeSync(0, []byte("after"), 50*Millisecond)
			if err != nil || string(res) != "retfa" {
				t.Fatalf("first op after the leader crash: res=%q err=%v", res, err)
			}
			t.Logf("completed in %v, views %d/%d", lat, u.Replicas[1].View(), u.Replicas[2].View())
			survivorsAgree(t, u.Replicas, u.Apps)
		})
	}
	t.Run("shard", func(t *testing.T) {
		d := NewSharded(ShardOptions{})
		defer d.Stop()
		for i := 0; i < 5; i++ {
			key := []byte(fmt.Sprintf("k%d", i))
			if _, _, err := d.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 10*Millisecond); err != nil {
				t.Fatalf("warm-up op %d: %v", i, err)
			}
		}
		if err := d.KillReplica(0, 0); err != nil {
			t.Fatal(err)
		}
		res, lat, err := d.InvokeSync(0, app.EncodeKVSet([]byte("after"), []byte("v")), 50*Millisecond)
		if err != nil || len(res) != 1 || res[0] != app.KVStored {
			t.Fatalf("first op after the leader crash: res=%v err=%v", res, err)
		}
		g := d.Groups[0]
		t.Logf("completed in %v, views %d/%d", lat, g.Replicas[1].View(), g.Replicas[2].View())
		survivorsAgree(t, g.Replicas, g.Apps)
	})
}

func TestFacadeModeConstants(t *testing.T) {
	// The re-exported mode constants must wire through to real behaviour.
	u := New(Options{Seed: 1, DisableFastPath: true, CTBMode: SlowOnly})
	defer u.Stop()
	res, lat, err := u.InvokeSync(0, []byte("slow"), 100*Millisecond)
	if err != nil || string(res) != "wols" {
		t.Fatalf("slow mode result: %q, %v", res, err)
	}
	if lat < 100*Microsecond {
		t.Fatalf("SlowOnly mode suspiciously fast: %v", lat)
	}
}
