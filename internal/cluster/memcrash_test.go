package cluster_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/memnode"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// slowOps runs n sequential operations through client 0 of a slow-path-only
// deployment (no consensus fast path, CTBcast always signing through its
// registers), calling fault(u, i) before operation i when fault is non-nil,
// and returns their virtual latencies. Each answer must be the default
// application's reversal of its request, and a live memory node must have
// taken register WRITEs.
func slowOps(t *testing.T, seed int64, n int, fault func(u *cluster.UBFT, op int)) []sim.Duration {
	u, err := cluster.Build(cluster.Options{Seed: seed, DisableFastPath: true, CTBMode: ctbcast.SlowOnly})
	if err != nil {
		t.Error(err)
		return nil
	}
	defer u.Stop()
	var lats []sim.Duration
	for i := 0; i < n; i++ {
		if fault != nil {
			fault(u, i)
		}
		req := []byte(fmt.Sprintf("op-%02d", i))
		want := slices.Clone(req)
		slices.Reverse(want)
		res, lat, err := u.InvokeSync(0, req, 50*sim.Millisecond)
		if err != nil || string(res) != string(want) {
			t.Errorf("seed %d op %d: %q, %v; want %q", seed, i, res, err, want)
			return nil
		}
		lats = append(lats, lat)
	}
	if u.Replicas[1].SlowDecides == 0 {
		t.Errorf("seed %d: nothing took the slow path", seed)
	}
	written := 0
	for _, mn := range u.MemNodes {
		if !mn.Crashed() {
			written += mn.CommittedBytes(u.ReplicaIDs[0])
		}
	}
	if written == 0 {
		t.Errorf("seed %d: no live memory node took a register WRITE", seed)
	}
	return lats
}

// killMemNodeAt kills memory node crash before operation at.
func killMemNodeAt(t *testing.T, at, crash int) func(*cluster.UBFT, int) {
	return func(u *cluster.UBFT, op int) {
		if op == at {
			if err := u.KillMemNode(crash); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestKillMemNodeRefusesUnknownAndDead: a memory node is killed once; a
// second kill, or a kill outside the pool, is refused.
func TestKillMemNodeRefusesUnknownAndDead(t *testing.T) {
	u, err := cluster.Build(cluster.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	if err := u.KillMemNode(1); err != nil || !u.MemNodes[1].Crashed() {
		t.Fatalf("kill: %v, crashed %v", err, u.MemNodes[1].Crashed())
	}
	for _, j := range []int{1, -1, len(u.MemNodes)} {
		if u.KillMemNode(j) == nil {
			t.Errorf("KillMemNode(%d) accepted", j)
		}
	}
}

// TestSlowPathSurvivesMemNodeCrash: one of the three memory nodes (f_m = 1)
// crash-stops before the first operation or after the fifth, under a
// deployment that takes only the signed slow path. Its registers then
// complete at f_m+1 answers, and every request frame they send keeps a
// transmission the dead node never answers. All 60 operations complete with
// their answers, and the agreement oracle stays silent.
func TestSlowPathSurvivesMemNodeCrash(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, at := range []int{0, 5} {
			crash := (int(seed) + at) % 3
			t.Run(fmt.Sprintf("seed%d/mem%d-at-op%d", seed, crash, at), func(t *testing.T) {
				if lats := slowOps(t, seed, 60, killMemNodeAt(t, at, crash)); len(lats) == 60 {
					t.Logf("p50 %v", lats[30])
				}
			})
		}
	}
}

// TestMemNodeCrashAtFirstWrite: for every memory node j and replica i, a
// rule kills memory node j at the first register WRITE replica i sends it,
// and drops that frame. The write in flight completes at the f_m+1 nodes
// left, all 60 operations complete with their answers, and the agreement
// oracle stays silent.
func TestMemNodeCrashAtFirstWrite(t *testing.T) {
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			t.Run(fmt.Sprintf("mem%d/replica%d", j, i), func(t *testing.T) {
				killed := false
				slowOps(t, 1, 60, func(u *cluster.UBFT, op int) {
					if op != 0 {
						return
					}
					from, to := u.ReplicaIDs[i], u.MemNodeIDs[j]
					u.Net.SetRule(func(src, dst ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
						if killed || src != from || dst != to {
							return simnet.Deliver, 0
						}
						ch, payload := router.Split(frame)
						if req, err := memnode.ParseRequest(payload); ch != router.ChanMemReq || err != nil || req.Op != wire.MemOpWrite {
							return simnet.Deliver, 0
						}
						// A memory-node kill only marks its process crashed,
						// so it is safe inside Send.
						killed = true
						if err := u.KillMemNode(j); err != nil {
							t.Error(err)
						}
						return simnet.Drop, 0
					})
				})
				if !killed {
					t.Errorf("replica %d never wrote to memory node %d", i, j)
				}
			})
		}
	}
}

// TestParallelDeploymentsShareCompletions: two slow-path deployments on
// their own goroutines share the process's free list of frames, one's
// clients, broadcasters and leaders releasing completions, replies, ring acks
// and echoes the other's memory nodes, replicas, listeners and followers
// write into. Each
// must answer as it does alone, at the same virtual latencies; `make race`
// runs this under the race detector.
func TestParallelDeploymentsShareCompletions(t *testing.T) {
	const ops = 60
	alone := [][]sim.Duration{slowOps(t, 1, ops, nil), slowOps(t, 2, ops, nil)}
	together := make([][]sim.Duration, 2)
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = slowOps(t, int64(i+1), ops, nil)
		}()
	}
	wg.Wait()
	for i := range together {
		if len(alone[i]) != ops || !slices.Equal(alone[i], together[i]) {
			t.Errorf("seed %d: latencies alone %v, beside another deployment %v", i+1, alone[i], together[i])
		}
	}
}
