package bench

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"math/rand"

	"repro/internal/app"
	"repro/internal/ctbcast"
	"repro/internal/sim"
)

func TestRecorderPercentiles(t *testing.T) {
	r := NewRecorder(100)
	for i := 1; i <= 100; i++ {
		r.Add(sim.Duration(i))
	}
	if got := r.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := r.Percentile(0.001); got != 1 {
		t.Fatalf("p0.001 = %v", got)
	}
	if r.Count() != 100 {
		t.Fatalf("count = %d", r.Count())
	}
}

func TestRecorderEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty percentile did not panic")
		}
	}()
	NewRecorder(0).Percentile(50)
}

func TestQuickPercentilesMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder(len(raw))
		for _, v := range raw {
			r.Add(sim.Duration(v))
		}
		prev := sim.Duration(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			cur := r.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return r.Percentile(100) == sim.Duration(slices.Max(raw)) && r.Percentile(0.001) == sim.Duration(slices.Min(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKVWorkloadMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wl := NewKVWorkload(rng)
	gets, sets := 0, 0
	for i := 0; i < 2000; i++ {
		req := wl.Next()
		switch req[0] {
		case app.KVGet:
			gets++
		case app.KVSet:
			sets++
		default:
			t.Fatalf("unexpected op %d", req[0])
		}
	}
	ratio := float64(gets) / float64(gets+sets)
	if ratio < 0.2 || ratio > 0.4 {
		t.Fatalf("GET ratio %.2f, want ~0.30", ratio)
	}
}

func TestKVWorkloadHitRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wl := NewKVWorkload(rng)
	kv := app.NewKV(0)
	hits, misses := 0, 0
	for i := 0; i < 3000; i++ {
		req := wl.Next()
		res := kv.Apply(req)
		if req[0] == app.KVGet {
			if res[0] == app.KVOK {
				hits++
			} else {
				misses++
			}
		}
	}
	ratio := float64(hits) / float64(hits+misses)
	if ratio < 0.65 || ratio > 0.95 {
		t.Fatalf("hit ratio %.2f, want ~0.80", ratio)
	}
}

// TestShardedKVWorkloadTargetsShard: every request of the mixture routes,
// through the store's own key extractor, to the shard the workload targets.
func TestShardedKVWorkloadTargetsShard(t *testing.T) {
	const shards = 4
	router := app.NewKV(0)
	for target := 0; target < shards; target++ {
		wl := NewKVWorkload(rand.New(rand.NewSource(3)))
		wl.shard, wl.shards = target, shards
		for i := 0; i < 64; i++ {
			req := wl.Next()
			keys, err := router.AppendKeys(nil, req)
			if err != nil || len(keys) != 1 {
				t.Fatalf("workload emitted unroutable request: %q, %v", keys, err)
			}
			if got := app.ShardOfKey(keys[0], shards); got != target {
				t.Fatalf("request %d routed to shard %d, want %d", i, got, target)
			}
		}
	}
}

func TestOrderWorkloadMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wl := NewOrderWorkload(rng)
	ob := app.NewOrderBook()
	matched := 0
	for i := 0; i < 1000; i++ {
		res := ob.Apply(wl.Next())
		_, _, _, fills, err := app.DecodeOrderResp(res)
		if err != nil {
			t.Fatalf("bad response: %v", err)
		}
		if len(fills) > 0 {
			matched++
		}
	}
	if matched < 100 {
		t.Fatalf("only %d/1000 orders matched; workload should cross often", matched)
	}
}

func TestRunClosedLoopUnreplicated(t *testing.T) {
	s := NewUnreplSystem(1, nil)
	rec := RunClosedLoop(s, NewFlipWorkload(32, rand.New(rand.NewSource(1))), 5, 50)
	if rec.Count() != 50 {
		t.Fatalf("recorded %d/50", rec.Count())
	}
	med := rec.Median()
	if med < sim.Microsecond || med > 6*sim.Microsecond {
		t.Fatalf("unreplicated median = %v, want ~2.2us", med)
	}
}

func TestNonEquivCTBFastVsSGX(t *testing.T) {
	// Paper Figure 10: CTB fast < SGX for small messages (up to 6.5x).
	ctbFast := NonEquivCTB(1, ctbcast.FastOnly, 16, 100).Median()
	sgx := NonEquivSGX(1, 16, 100).Median()
	if ctbFast >= sgx {
		t.Fatalf("CTB fast (%v) should beat SGX (%v)", ctbFast, sgx)
	}
	if sgx < 14*sim.Microsecond {
		t.Fatalf("SGX latency %v below the 2-enclave-access floor", sgx)
	}
}

func TestNonEquivCTBSlowUsesSignatures(t *testing.T) {
	slow := NonEquivCTB(1, ctbcast.SlowOnly, 16, 30).Median()
	fast := NonEquivCTB(1, ctbcast.FastOnly, 16, 30).Median()
	if slow < 4*fast {
		t.Fatalf("CTB slow (%v) should be much slower than fast (%v)", slow, fast)
	}
}

func TestThroughputPipelineGains(t *testing.T) {
	rows := Throughput(1, 300)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].OpsPerSec <= 0 {
		t.Fatal("zero throughput at depth 1")
	}
	// Pipelining two requests should improve throughput (paper: ~2x).
	if rows[1].OpsPerSec < 1.2*rows[0].OpsPerSec {
		t.Errorf("depth-2 throughput %.0f not a clear gain over depth-1 %.0f",
			rows[1].OpsPerSec, rows[0].OpsPerSec)
	}
}

func TestTable2Shapes(t *testing.T) {
	rows := Table2(1)
	byKey := map[[2]int]Table2Row{}
	for _, r := range rows {
		byKey[[2]int{r.ReqSize, r.Tail}] = r
	}
	// Disaggregated memory is independent of request size and linear in t.
	d16 := byKey[[2]int{64, 16}].DisagActual
	d128 := byKey[[2]int{64, 128}].DisagActual
	if d128 != 8*d16 {
		t.Errorf("disaggregated memory not linear in t: %d vs %d", d16, d128)
	}
	if byKey[[2]int{2048, 16}].DisagActual != d16 {
		t.Errorf("disaggregated memory should not depend on request size")
	}
	// Local memory grows with t and with request size.
	l16 := byKey[[2]int{64, 16}].LocalBytes
	l128 := byKey[[2]int{64, 128}].LocalBytes
	if l128 <= l16 {
		t.Errorf("local memory not growing in t: %d vs %d", l16, l128)
	}
	if byKey[[2]int{2048, 16}].LocalBytes <= l16 {
		t.Errorf("local memory should grow with request size")
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	PrintFig7(&buf, []Fig7Row{{App: "Flip", System: "Mu", P50: 1, P90: 2, P95: 3}})
	PrintFig8(&buf, []Fig8Row{{Size: 4, Medians: map[string]sim.Duration{"Mu": 1}}})
	PrintFig9(&buf, []Fig9Breakdown{{Path: "fast", E2E: 10}})
	PrintFig10(&buf, []Fig10Row{{Size: 4, CTBFast: 1, CTBSlow: 2, SGX: 3}})
	PrintFig11(&buf, []Fig11Row{{ReqSize: 64, Tail: 16, Lat: make([]sim.Duration, len(Fig11Percentiles))}})
	PrintTable2(&buf, []Table2Row{{ReqSize: 64, Tail: 16}})
	PrintThroughput(&buf, []ThroughputRow{{Outstanding: 1, OpsPerSec: 90000}})
	if buf.Len() < 400 {
		t.Fatal("printers produced suspiciously little output")
	}
}
