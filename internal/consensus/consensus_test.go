package consensus_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/sim"
)

func flipCluster(opts cluster.Options) *cluster.UBFT {
	if opts.NewApp == nil {
		opts.NewApp = func() app.StateMachine { return app.NewFlip() }
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return cluster.NewUBFT(opts)
}

func TestFastPathSingleRequest(t *testing.T) {
	u := flipCluster(cluster.Options{})
	defer u.Stop()
	res, lat, err := u.InvokeSync(0, []byte("abcd"), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "dcba" {
		t.Fatalf("result = %q, want dcba", res)
	}
	if lat <= 0 || lat > 100*sim.Microsecond {
		t.Fatalf("fast-path latency = %v (expected microsecond scale)", lat)
	}
	// All replicas decided via the fast path, none via the slow path.
	for i, r := range u.Replicas {
		if r.FastDecides == 0 {
			t.Errorf("replica %d: no fast decides", i)
		}
		if r.SlowDecides != 0 {
			t.Errorf("replica %d: %d slow decides on a clean run", i, r.SlowDecides)
		}
	}
}

func TestSequentialRequestsAllReplicasConverge(t *testing.T) {
	u := flipCluster(cluster.Options{})
	defer u.Stop()
	const total = 50
	for i := 0; i < total; i++ {
		payload := []byte(fmt.Sprintf("req-%02d", i))
		res, _, _ := u.InvokeSync(0, payload, 10*sim.Millisecond)
		if res == nil {
			t.Fatalf("request %d timed out", i)
		}
	}
	u.Eng.RunFor(5 * sim.Millisecond)
	for i, r := range u.Replicas {
		if r.Executed != total {
			t.Errorf("replica %d executed %d/%d", i, r.Executed, total)
		}
		if r.LastApplied() != consensus.Slot(total) {
			t.Errorf("replica %d lastApplied=%d", i, r.LastApplied())
		}
	}
	// Application states must be identical.
	s0 := u.Apps[0].Snapshot()
	for i := 1; i < len(u.Apps); i++ {
		if !bytes.Equal(s0, u.Apps[i].Snapshot()) {
			t.Errorf("replica %d state diverged", i)
		}
	}
}

func TestSlowPathOnlyConfiguration(t *testing.T) {
	u := flipCluster(cluster.Options{
		DisableFastPath: true,
		CTBMode:         ctbcast.SlowOnly,
	})
	defer u.Stop()
	res, lat, err := u.InvokeSync(0, []byte("slow"), 50*sim.Millisecond)
	if err != nil {
		t.Fatalf("slow-path request: %v", err)
	}
	if string(res) != "wols" {
		t.Fatalf("result = %q", res)
	}
	// Slow path is dominated by signatures: hundreds of microseconds.
	if lat < 100*sim.Microsecond {
		t.Fatalf("slow-path latency %v suspiciously low (signatures skipped?)", lat)
	}
	u.Eng.RunFor(10 * sim.Millisecond) // let the slowest replica finish too
	for i, r := range u.Replicas {
		if r.SlowDecides == 0 {
			t.Errorf("replica %d: no slow decides", i)
		}
	}
}

func TestFastPathFallsBackWhenFollowerCrashes(t *testing.T) {
	// With one crashed follower the fast path cannot reach unanimity; the
	// per-slot fallback must engage the slow path and still decide.
	u := flipCluster(cluster.Options{
		SlowPathDelay: 30 * sim.Microsecond,
	})
	defer u.Stop()
	u.Net.Node(u.ReplicaIDs[2]).Proc().Crash()
	res, lat, err := u.InvokeSync(0, []byte("ab"), 100*sim.Millisecond)
	if err != nil {
		t.Fatalf("request with f crashed replicas: %v", err)
	}
	if string(res) != "ba" {
		t.Fatalf("result = %q", res)
	}
	if lat < 30*sim.Microsecond {
		t.Fatalf("latency %v too low for a fallback decision", lat)
	}
}

func TestCheckpointAdvancesWindow(t *testing.T) {
	// Tail must not exceed Window (cluster.Options validation).
	u := flipCluster(cluster.Options{Window: 8, Tail: 8})
	defer u.Stop()
	const total = 30 // crosses 3 checkpoint boundaries with window 8
	for i := 0; i < total; i++ {
		res, _, _ := u.InvokeSync(0, []byte(fmt.Sprintf("%02d", i)), 20*sim.Millisecond)
		if res == nil {
			t.Fatalf("request %d timed out (window stuck?)", i)
		}
	}
	u.Eng.RunFor(10 * sim.Millisecond)
	for i, r := range u.Replicas {
		if r.Checkpoint().Seq < 24 {
			t.Errorf("replica %d checkpoint seq = %d, want >= 24", i, r.Checkpoint().Seq)
		}
		if got := r.Footprint().Slots; got > 16 {
			t.Errorf("replica %d retains %d slot states (window not pruned)", i, got)
		}
	}
}

// TestCheckpointStallBounded pins the worst case of the fault-free fast path:
// one client at depth 1, 64 B Flip, the default 256-slot window. Slot Window
// opens only once checkpoint Window is stable (Algorithm 2), so the operation
// that lands there waits for the certificate: snapshot, own share signed on
// the crypto pool, a peer's share verified there, the CHECKPOINT adopted.
// That wait was 310 us, 28x the median, while the leader also verified its
// own share on the pool (behind the CTBcast summary shares of the same
// boundary) and then every signature of the certificate a second time on its
// main process; without those two it was 165 us, 14.9x. Since the pool
// verifies only the summary and checkpoint shares a certificate still lacks
// and a peer's CHECKPOINT waits for the pool instead of being verified on the
// main process, it is 128 us, 11.6x on seeds 1-4, pinned here at 12x, and no
// replica verifies a CHECKPOINT certificate on its main process. ROADMAP
// item 3(c) asks for less: a checkpoint every half window takes the
// certificate off the path altogether (102 us, 9.2x, measured) but doubles
// the state transfers a lagging replica takes, and with them the trips of
// hole 3(a), so it waits for that hole to be closed. Also asserted after
// every operation: at most Window slots open.
func TestCheckpointStallBounded(t *testing.T) {
	const window, warmup, ops = 256, 20, 2000
	u := flipCluster(cluster.Options{Seed: 1})
	defer u.Stop()
	payload := make([]byte, 64)
	lats := make([]sim.Duration, 0, ops)
	for i := 0; i < warmup+ops; i++ {
		_, lat, err := u.InvokeSync(0, payload, 10*sim.Millisecond)
		if err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
		if i >= warmup {
			lats = append(lats, lat)
		}
		for ri, r := range u.Replicas {
			next, _, chk, _ := r.Progress()
			if open := r.Footprint().Slots; next > chk+window || open > window {
				t.Fatalf("operation %d, replica %d: next slot %d over checkpoint %d, %d slot records", i, ri, next, chk, open)
			}
		}
	}
	slices.Sort(lats)
	median := lats[len(lats)/2]
	if worst := lats[len(lats)-1]; worst > 12*median {
		t.Errorf("worst operation %v is %.1fx the median %v, want at most 12x", worst, float64(worst)/float64(median), median)
	}
	for i, r := range u.Replicas {
		if cp := r.Checkpoint().Seq; cp < warmup+ops-window {
			t.Errorf("replica %d: stable checkpoint %d after %d slots", i, cp, warmup+ops)
		}
		if n := r.CheckpointCertChecks(); n != 0 {
			t.Errorf("replica %d verified %d CHECKPOINT certificates on its main process", i, n)
		}
	}
}

func TestViewChangeOnLeaderCrash(t *testing.T) {
	u := flipCluster(cluster.Options{
		ViewChangeTimeout: 300 * sim.Microsecond,
		SlowPathDelay:     50 * sim.Microsecond,
	})
	defer u.Stop()
	// A first request through the healthy leader.
	if res, _, _ := u.InvokeSync(0, []byte("xy"), 10*sim.Millisecond); res == nil {
		t.Fatal("bootstrap request failed")
	}
	// Crash the leader (replica 0 leads view 0).
	u.Net.Node(u.ReplicaIDs[0]).Proc().Crash()
	res, _, _ := u.InvokeSync(0, []byte("hi"), 200*sim.Millisecond)
	if res == nil {
		t.Fatal("request after leader crash timed out (view change failed)")
	}
	if string(res) != "ih" {
		t.Fatalf("result = %q", res)
	}
	for _, i := range []int{1, 2} {
		if u.Replicas[i].View() == 0 {
			t.Errorf("replica %d still in view 0 after leader crash", i)
		}
	}
}

func TestViewChangePreservesDecidedRequests(t *testing.T) {
	// Decide several requests, crash the leader, decide more through the
	// new leader; all replicas' states must match and nothing is lost.
	u := flipCluster(cluster.Options{
		ViewChangeTimeout: 300 * sim.Microsecond,
		SlowPathDelay:     50 * sim.Microsecond,
		NewApp:            func() app.StateMachine { return app.NewKV(0) },
	})
	defer u.Stop()
	for i := 0; i < 5; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if res, _, _ := u.InvokeSync(0, app.EncodeKVSet(k, []byte("before")), 20*sim.Millisecond); res == nil {
			t.Fatalf("pre-crash set %d failed", i)
		}
	}
	u.Net.Node(u.ReplicaIDs[0]).Proc().Crash()
	for i := 5; i < 8; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if res, _, _ := u.InvokeSync(0, app.EncodeKVSet(k, []byte("after")), 300*sim.Millisecond); res == nil {
			t.Fatalf("post-crash set %d failed", i)
		}
	}
	// Surviving replicas agree on the full state.
	u.Eng.RunFor(20 * sim.Millisecond)
	s1, s2 := u.Apps[1].Snapshot(), u.Apps[2].Snapshot()
	if !bytes.Equal(s1, s2) {
		t.Fatal("surviving replicas diverged after view change")
	}
	kv := app.NewKV(0)
	kv.Restore(s1)
	if kv.Len() != 8 {
		t.Fatalf("kv has %d keys, want 8", kv.Len())
	}
}

func TestViewChangeFragmentedNewView(t *testing.T) {
	// A NEW_VIEW carries f+1 certified states whose undecided commit
	// certificates embed full request payloads, so with a small message cap
	// and a burst of fat slow-path requests the message outgrows the
	// CTBcast per-message cap and must travel as a fragment train on the
	// new leader's channel. Slow-path-only mode keeps COMMIT certificates
	// accumulating deterministically in every replica's certified state.
	u := flipCluster(cluster.Options{
		NewApp:            func() app.StateMachine { return app.NewKV(0) },
		Window:            32,
		Tail:              16,
		MsgCap:            1024,
		DisableFastPath:   true,
		CTBMode:           ctbcast.SlowOnly,
		ViewChangeTimeout: 500 * sim.Microsecond,
	})
	defer u.Stop()
	val := bytes.Repeat([]byte("v"), 700)
	for i := 0; i < 12; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if res, _, _ := u.InvokeSync(0, app.EncodeKVSet(k, val), 100*sim.Millisecond); res == nil {
			t.Fatalf("pre-crash set %d failed", i)
		}
	}
	// Crash the view-0 leader; the view change must reassemble those
	// commits into the NEW_VIEW and still make progress afterwards.
	u.Net.Node(u.ReplicaIDs[0]).Proc().Crash()
	if res, _, _ := u.InvokeSync(0, app.EncodeKVSet([]byte("after"), []byte("vc")), 1000*sim.Millisecond); res == nil {
		t.Fatal("request after leader crash timed out (view change failed)")
	}
	var frags uint64
	for _, i := range []int{1, 2} {
		frags += u.Replicas[i].NewViewFragsSent
	}
	if frags == 0 {
		t.Fatal("view change completed without fragmenting the NEW_VIEW (workload no longer exceeds the cap?)")
	}
	u.Eng.RunFor(20 * sim.Millisecond)
	s1, s2 := u.Apps[1].Snapshot(), u.Apps[2].Snapshot()
	if !bytes.Equal(s1, s2) {
		t.Fatal("surviving replicas diverged after fragmented view change")
	}
	kv := app.NewKV(0)
	kv.Restore(s1)
	if kv.Len() != 13 {
		t.Fatalf("kv has %d keys, want 13", kv.Len())
	}
}

func TestKVApplication(t *testing.T) {
	u := flipCluster(cluster.Options{NewApp: func() app.StateMachine { return app.NewKV(0) }})
	defer u.Stop()
	if res, _, _ := u.InvokeSync(0, app.EncodeKVSet([]byte("alpha"), []byte("42")), 10*sim.Millisecond); res == nil || res[0] != app.KVStored {
		t.Fatalf("set failed: %v", res)
	}
	res, _, _ := u.InvokeSync(0, app.EncodeKVGet([]byte("alpha")), 10*sim.Millisecond)
	if res == nil || res[0] != app.KVOK {
		t.Fatalf("get failed: %v", res)
	}
	res, _, _ = u.InvokeSync(0, app.EncodeKVGet([]byte("missing")), 10*sim.Millisecond)
	if res == nil || res[0] != app.KVMiss {
		t.Fatalf("get of missing key: %v", res)
	}
}

func TestOrderBookApplication(t *testing.T) {
	u := flipCluster(cluster.Options{NewApp: func() app.StateMachine { return app.NewOrderBook() }})
	defer u.Stop()
	// A resting sell, then a crossing buy: the buy must fill.
	if res, _, _ := u.InvokeSync(0, app.EncodeOrder(app.OpSell, 100, 10), 10*sim.Millisecond); res == nil {
		t.Fatal("sell failed")
	}
	res, _, _ := u.InvokeSync(0, app.EncodeOrder(app.OpBuy, 105, 4), 10*sim.Millisecond)
	if res == nil {
		t.Fatal("buy failed")
	}
	ok, _, remaining, fills, err := app.DecodeOrderResp(res)
	if err != nil || !ok {
		t.Fatalf("bad order response: %v %v", err, res)
	}
	if remaining != 0 || len(fills) != 1 || fills[0].Qty != 4 || fills[0].Price != 100 {
		t.Fatalf("fills = %+v remaining=%d", fills, remaining)
	}
}

func TestTwoClientsInterleave(t *testing.T) {
	u := flipCluster(cluster.Options{NumClients: 2})
	defer u.Stop()
	results := make(map[int][]byte)
	for c := 0; c < 2; c++ {
		c := c
		u.Clients[c].Invoke([]byte(fmt.Sprintf("c%d", c)), func(res []byte, _ sim.Duration) {
			results[c] = res
		})
	}
	u.Eng.RunFor(10 * sim.Millisecond)
	if string(results[0]) != "0c" || string(results[1]) != "1c" {
		t.Fatalf("results = %q %q", results[0], results[1])
	}
}

func TestDuplicateClientRequestNotReExecuted(t *testing.T) {
	u := flipCluster(cluster.Options{})
	defer u.Stop()
	if res, _, _ := u.InvokeSync(0, []byte("one"), 10*sim.Millisecond); res == nil {
		t.Fatal("first request failed")
	}
	if res, _, _ := u.InvokeSync(0, []byte("two"), 10*sim.Millisecond); res == nil {
		t.Fatal("second request failed")
	}
	u.Eng.RunFor(5 * sim.Millisecond)
	for i, r := range u.Replicas {
		if r.Executed != 2 {
			t.Errorf("replica %d executed %d, want 2", i, r.Executed)
		}
	}
}

func TestStableLeaderNoViewChangesOnCleanRuns(t *testing.T) {
	u := flipCluster(cluster.Options{ViewChangeTimeout: 5 * sim.Millisecond})
	defer u.Stop()
	for i := 0; i < 10; i++ {
		if res, _, _ := u.InvokeSync(0, []byte("zz"), 10*sim.Millisecond); res == nil {
			t.Fatalf("request %d failed", i)
		}
	}
	u.Eng.RunFor(2 * sim.Millisecond)
	for i, r := range u.Replicas {
		if r.View() != 0 {
			t.Errorf("replica %d moved to view %d on a clean run", i, r.View())
		}
	}
}

func TestLargeRequests(t *testing.T) {
	u := flipCluster(cluster.Options{})
	defer u.Stop()
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	res, _, _ := u.InvokeSync(0, payload, 20*sim.Millisecond)
	if res == nil {
		t.Fatal("large request timed out")
	}
	for i := range payload {
		if res[i] != payload[len(payload)-1-i] {
			t.Fatal("large request result wrong")
		}
	}
}

func TestFm1MemoryNodeCrashTolerated(t *testing.T) {
	u := flipCluster(cluster.Options{
		DisableFastPath: true,
		CTBMode:         ctbcast.SlowOnly,
	})
	defer u.Stop()
	if err := u.KillMemNode(0); err != nil {
		t.Fatal(err)
	}
	res, _, _ := u.InvokeSync(0, []byte("ok"), 100*sim.Millisecond)
	if res == nil {
		t.Fatal("slow path failed with one crashed memory node")
	}
	if string(res) != "ko" {
		t.Fatalf("result = %q", res)
	}
}
