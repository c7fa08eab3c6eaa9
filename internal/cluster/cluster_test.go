package cluster

import (
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestDefaultsMatchPaper(t *testing.T) {
	u := NewUBFT(Options{Seed: 1})
	defer u.Stop()
	if len(u.Replicas) != 3 {
		t.Fatalf("replicas = %d, want 3 (f=1)", len(u.Replicas))
	}
	if len(u.MemNodes) != 3 {
		t.Fatalf("memory nodes = %d, want 3 (f_m=1)", len(u.MemNodes))
	}
	if len(u.Clients) != 1 {
		t.Fatalf("clients = %d, want 1", len(u.Clients))
	}
}

func TestF2Cluster(t *testing.T) {
	// 2f+1 = 5 replicas must also work (the paper evaluates f=1 only, but
	// the protocol is parametric).
	u := NewUBFT(Options{Seed: 1, F: 2, Fm: 2})
	defer u.Stop()
	if len(u.Replicas) != 5 || len(u.MemNodes) != 5 {
		t.Fatalf("f=2 sizes: %d replicas %d memnodes", len(u.Replicas), len(u.MemNodes))
	}
	res, lat, err := u.InvokeSync(0, []byte("five"), 50*sim.Millisecond)
	if err != nil || string(res) != "evif" {
		t.Fatalf("f=2 result: %q, %v", res, err)
	}
	if lat <= 0 {
		t.Fatal("no latency measured")
	}
}

func TestMultipleClients(t *testing.T) {
	u := NewUBFT(Options{Seed: 1, NumClients: 3})
	defer u.Stop()
	for i := 0; i < 3; i++ {
		res, _, _ := u.InvokeSync(i, []byte("hi"), 20*sim.Millisecond)
		if string(res) != "ih" {
			t.Fatalf("client %d: %q", i, res)
		}
	}
}

func TestInvokeSyncTimeout(t *testing.T) {
	u := NewUBFT(Options{Seed: 1})
	defer u.Stop()
	// Partition the client from everyone: the invoke must fail rather than
	// hang. With no events left to flow the outcome is a stall, not a
	// timeout.
	for _, r := range u.ReplicaIDs {
		u.Net.Partition(u.ClientIDs[0], r)
	}
	res, lat, err := u.InvokeSync(0, []byte("x"), 2*sim.Millisecond)
	if res != nil || lat != 0 || err != ErrStalled {
		t.Fatalf("fully partitioned client should stall: res=%v lat=%v err=%v", res, lat, err)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := map[string]Options{
		"negative F":          {F: -1},
		"negative Fm":         {Fm: -2},
		"negative clients":    {NumClients: -1},
		"tail beyond window":  {Window: 64, Tail: 128},
		"negative msgcap":     {MsgCap: -1},
		"too many replicas":   {F: 32}, // 2F+1 = 65 > 64-replica bitmask limit
		"memnode id overflow": {Fm: 50},
		"negative viewchange": {ViewChangeTimeout: -1},
		"negative slow path":  {SlowPathDelay: -1},
		// 256 x (16 KiB + 512) + 4096 B = 4.33 MB summaries, above a 4 MiB frame.
		"summary beyond a frame": {MsgCap: 16 << 10},
		// A CTBcast group needs an even tail of at least 2.
		"odd tail":               {Tail: 7, Window: 8},
		"tail of one":            {Tail: 1},
		"window of one, no tail": {Window: 1},
	}
	for name, opts := range cases {
		if err := opts.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %+v", name, opts)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewUBFT did not panic", name)
				}
			}()
			NewUBFT(opts)
		}()
	}
	// Defaults and an explicit valid config must pass.
	good := Options{}
	if err := good.Normalize(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if good.SlowPathDelay != sim.Millisecond || good.ViewChangeTimeout != 2*sim.Millisecond {
		t.Fatalf("defaulted timers: SlowPathDelay=%v ViewChangeTimeout=%v, want 1ms and 2ms", good.SlowPathDelay, good.ViewChangeTimeout)
	}
	// The largest request a paper-default window allows still fits.
	largest := Options{MsgCap: (transport.MaxFrame-4096)/256 - 512}
	if err := largest.Normalize(); err != nil {
		t.Fatalf("largest summary that fits a frame rejected: %v", err)
	}
	tight := Options{Window: 8, Tail: 8}
	if err := tight.Normalize(); err != nil {
		t.Fatalf("Tail == Window rejected: %v", err)
	}
	// Setting only a small Window must stay valid: the defaulted Tail is
	// capped at the window rather than tripping the Tail > Window check.
	windowOnly := Options{Window: 8}
	if err := windowOnly.Normalize(); err != nil {
		t.Fatalf("Window-only config rejected: %v", err)
	}
	if windowOnly.Tail != 8 {
		t.Fatalf("defaulted Tail = %d, want capped to Window 8", windowOnly.Tail)
	}
	// An odd Window defaults the largest even tail below it, and builds.
	oddWindow := Options{Window: 5}
	if err := oddWindow.Normalize(); err != nil || oddWindow.Tail != 4 {
		t.Fatalf("Window 5 alone: Tail %d, error %v; want 4 and none", oddWindow.Tail, err)
	}
	u, err := Build(Options{Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	u.Stop()
}

// TestOversizedRequestDropped: every replica drops an ordered request whose
// payload exceeds MsgCap, as it drops a malformed one. The oversized requests
// go unanswered, and an ordinary one after them completes (with no
// divergence: the agreement oracle panics at one).
func TestOversizedRequestDropped(t *testing.T) {
	opts := Options{Seed: 1}
	if err := opts.Normalize(); err != nil {
		t.Fatal(err)
	}
	u := NewUBFT(opts)
	defer u.Stop()
	answered := 0
	for _, size := range []int{opts.MsgCap + 1, 20000} {
		u.Clients[0].Invoke(make([]byte, size), func([]byte, sim.Duration) { answered++ })
	}
	if _, _, err := u.InvokeSync(0, []byte("ordinary"), 50*sim.Millisecond); err != nil {
		t.Fatalf("ordinary request after two oversized ones: %v", err)
	}
	u.Eng.RunFor(10 * sim.Millisecond)
	if answered != 0 {
		t.Fatalf("%d oversized requests answered", answered)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Duration {
		u := NewUBFT(Options{Seed: 99})
		defer u.Stop()
		_, lat, err := u.InvokeSync(0, []byte("det"), 20*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different latencies: %v vs %v", a, b)
	}
	u := NewUBFT(Options{Seed: 100})
	defer u.Stop()
	_, c, _ := u.InvokeSync(0, []byte("det"), 20*sim.Millisecond)
	if c == a {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

func TestCustomAppFactory(t *testing.T) {
	built := 0
	u := NewUBFT(Options{Seed: 1, NewApp: func() app.StateMachine {
		built++
		return app.NewKV(0)
	}})
	defer u.Stop()
	// One instance per replica plus one used for region sizing.
	if built < 3 {
		t.Fatalf("app factory called %d times, want >=3", built)
	}
	res, _, _ := u.InvokeSync(0, app.EncodeKVSet([]byte("k"), []byte("v")), 20*sim.Millisecond)
	if res == nil || res[0] != app.KVStored {
		t.Fatalf("KV through custom factory: %v", res)
	}
}

func TestMemNodesShareNothingWithReplicas(t *testing.T) {
	u := NewUBFT(Options{Seed: 1})
	defer u.Stop()
	// Memory nodes hold only coordination regions, never application
	// state: their total allocation stays fixed as requests flow.
	before := u.MemNodes[0].AllocatedBytes
	for i := 0; i < 10; i++ {
		u.InvokeSync(0, []byte("req"), 20*sim.Millisecond)
	}
	if u.MemNodes[0].AllocatedBytes != before {
		t.Fatal("memory-node allocation grew with requests (state leaked)")
	}
}
