package ubft

import (
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
)

// Tests of the public façade: everything a downstream user touches.

func TestFacadeQuickstart(t *testing.T) {
	u := New(Options{Seed: 1})
	defer u.Stop()
	res, lat := u.InvokeSync(0, []byte("facade"), 10*Millisecond)
	if string(res) != "edacaf" {
		t.Fatalf("result = %q", res)
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
	if res, _ := un.InvokeSync([]byte("ab"), 10*Millisecond); string(res) != "ba" {
		t.Fatalf("unreplicated: %q", res)
	}
	mu := NewMu(cluster.MuOptions{Seed: 1})
	defer mu.Stop()
	if res, _ := mu.InvokeSync([]byte("ab"), 10*Millisecond); string(res) != "ba" {
		t.Fatalf("mu: %q", res)
	}
	mb := NewMinBFT(cluster.MinBFTOptions{Seed: 1, Mode: MinBFTHMAC})
	if res, _ := mb.InvokeSync([]byte("ab"), 100*Millisecond); string(res) != "ba" {
		t.Fatalf("minbft: %q", res)
	}
}

func TestFacadeModeConstants(t *testing.T) {
	// The re-exported mode constants must wire through to real behaviour.
	u := New(Options{Seed: 1, DisableFastPath: true, CTBMode: SlowOnly})
	defer u.Stop()
	res, lat := u.InvokeSync(0, []byte("slow"), 100*Millisecond)
	if string(res) != "wols" {
		t.Fatalf("slow mode result: %q", res)
	}
	if lat < 100*Microsecond {
		t.Fatalf("SlowOnly mode suspiciously fast: %v", lat)
	}
}
