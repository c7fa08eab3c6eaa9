package cluster_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// slowOps runs n sequential operations through client 0 of a slow-path-only
// deployment, crashing memory node crash at operation crashAt (-1: never),
// and returns their virtual latencies. Each answer must be the default
// application's reversal of its request.
func slowOps(t *testing.T, seed int64, n, crashAt, crash int) []sim.Duration {
	u, err := cluster.Build(cluster.Options{Seed: seed, DisableFastPath: true})
	if err != nil {
		t.Error(err)
		return nil
	}
	defer u.Stop()
	var lats []sim.Duration
	for i := 0; i < n; i++ {
		if i == crashAt {
			u.MemNodes[crash].Crash()
		}
		req := []byte(fmt.Sprintf("op-%02d", i))
		want := slices.Clone(req)
		slices.Reverse(want)
		res, lat, err := u.InvokeSyncErr(0, req, 50*sim.Millisecond)
		if err != nil || string(res) != string(want) {
			t.Errorf("seed %d op %d: %q, %v; want %q", seed, i, res, err, want)
			return nil
		}
		lats = append(lats, lat)
	}
	if u.Replicas[1].SlowDecides == 0 {
		t.Errorf("seed %d: nothing took the slow path", seed)
	}
	return lats
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
				if lats := slowOps(t, seed, 60, at, crash); len(lats) == 60 {
					t.Logf("p50 %v", lats[30])
				}
			})
		}
	}
}

// TestParallelDeploymentsShareCompletions: two slow-path deployments on
// their own goroutines share the memory nodes' completion free list, one's
// clients releasing frames the other's memory nodes write into. Each must
// answer as it does alone, at the same virtual latencies; `make race` runs
// this under the race detector.
func TestParallelDeploymentsShareCompletions(t *testing.T) {
	const ops = 60
	alone := [][]sim.Duration{slowOps(t, 1, ops, -1, 0), slowOps(t, 2, ops, -1, 0)}
	together := make([][]sim.Duration, 2)
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = slowOps(t, int64(i+1), ops, -1, 0)
		}()
	}
	wg.Wait()
	for i := range together {
		if len(alone[i]) != ops || !slices.Equal(alone[i], together[i]) {
			t.Errorf("seed %d: latencies alone %v, beside another deployment %v", i+1, alone[i], together[i])
		}
	}
}
