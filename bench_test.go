package ubft

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§7), plus the §9 throughput discussion and ablations
// of the design decisions docs/ARCHITECTURE.md calls out. Latencies are
// VIRTUAL time from the deterministic simulation, reported via
// b.ReportMetric as "us/op-virtual" (and friends); wall-clock ns/op only
// reflects how fast the simulator itself runs.
//
// Regenerate everything in table form with: go run ./cmd/ubft-bench -all

import (
	"math/rand"
	"testing"

	"repro/internal/app"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/ctbcast"
	"repro/internal/sim"
)

// reportLatency runs a closed loop on sys and reports its percentiles.
func reportLatency(b *testing.B, sys bench.System, wl bench.Workload, samples int) {
	b.Helper()
	rec := bench.RunClosedLoop(sys, wl, 10, samples)
	sys.Stop()
	if rec.Count() == 0 {
		b.Fatal("no samples recorded")
	}
	b.ReportMetric(rec.Percentile(50).Micros(), "p50-us")
	b.ReportMetric(rec.Percentile(90).Micros(), "p90-us")
	b.ReportMetric(rec.Percentile(99).Micros(), "p99-us")
}

func samples(b *testing.B, base int) int {
	if testing.Short() {
		return base / 10
	}
	return base
}

// ----- Figure 7: end-to-end application latency ------------------------

func fig7Case(b *testing.B, mkSys func(func() app.StateMachine) bench.System,
	mkApp func() app.StateMachine, wl func(*rand.Rand) bench.Workload) {
	b.Helper()
	b.ReportAllocs()
	for b.Loop() {
		reportLatency(b, mkSys(mkApp), wl(rand.New(rand.NewSource(1))), samples(b, 400))
	}
}

func BenchmarkFig7_Flip_Unreplicated(b *testing.B) {
	fig7Case(b, func(mk func() app.StateMachine) bench.System { return bench.NewUnreplSystem(1, mk) },
		func() app.StateMachine { return app.NewFlip() },
		func(r *rand.Rand) bench.Workload { return bench.NewFlipWorkload(32, r) })
}

func BenchmarkFig7_Flip_Mu(b *testing.B) {
	fig7Case(b, func(mk func() app.StateMachine) bench.System { return bench.NewMuSystem(1, mk) },
		func() app.StateMachine { return app.NewFlip() },
		func(r *rand.Rand) bench.Workload { return bench.NewFlipWorkload(32, r) })
}

func BenchmarkFig7_Flip_UBFT(b *testing.B) {
	fig7Case(b, func(mk func() app.StateMachine) bench.System { return bench.NewUBFTFast(1, mk) },
		func() app.StateMachine { return app.NewFlip() },
		func(r *rand.Rand) bench.Workload { return bench.NewFlipWorkload(32, r) })
}

func BenchmarkFig7_Memcached_UBFT(b *testing.B) {
	fig7Case(b, func(mk func() app.StateMachine) bench.System { return bench.NewUBFTFast(1, mk) },
		func() app.StateMachine { return app.NewKV(0) },
		func(r *rand.Rand) bench.Workload { return bench.NewKVWorkload(r) })
}

func BenchmarkFig7_Liquibook_UBFT(b *testing.B) {
	fig7Case(b, func(mk func() app.StateMachine) bench.System { return bench.NewUBFTFast(1, mk) },
		func() app.StateMachine { return app.NewOrderBook() },
		func(r *rand.Rand) bench.Workload { return bench.NewOrderWorkload(r) })
}

func BenchmarkFig7_Redis_UBFT(b *testing.B) {
	fig7Case(b, func(mk func() app.StateMachine) bench.System { return bench.NewUBFTFast(1, mk) },
		func() app.StateMachine { return app.NewRKV() },
		func(r *rand.Rand) bench.Workload { return bench.NewRKVWorkload(r) })
}

// ----- Figure 8: latency vs request size -------------------------------

func fig8Case(b *testing.B, mk func() bench.System, size, n int) {
	b.Helper()
	b.ReportAllocs()
	for b.Loop() {
		reportLatency(b, mk(), bench.NewFlipWorkload(size, rand.New(rand.NewSource(1))), samples(b, n))
	}
}

func BenchmarkFig8_UBFTFast_64B(b *testing.B) {
	fig8Case(b, func() bench.System { return bench.NewUBFTFast(1, nil) }, 64, 300)
}

func BenchmarkFig8_UBFTFast_4KiB(b *testing.B) {
	fig8Case(b, func() bench.System { return bench.NewUBFTFast(1, nil) }, 4096, 300)
}

func BenchmarkFig8_UBFTSlow_64B(b *testing.B) {
	fig8Case(b, func() bench.System { return bench.NewUBFTSlow(1, nil) }, 64, 60)
}

func BenchmarkFig8_MinBFTHMAC_64B(b *testing.B) {
	fig8Case(b, func() bench.System { return bench.NewMinBFTSystem(1, MinBFTHMAC, nil) }, 64, 60)
}

func BenchmarkFig8_MinBFTVanilla_64B(b *testing.B) {
	fig8Case(b, func() bench.System { return bench.NewMinBFTSystem(1, MinBFTVanilla, nil) }, 64, 60)
}

// ----- Figure 9: latency breakdown --------------------------------------

func BenchmarkFig9_Breakdown(b *testing.B) {
	for b.Loop() {
		rows := bench.Fig9(1, samples(b, 100))
		b.ReportMetric(rows[0].E2E.Micros(), "fast-e2e-us")
		b.ReportMetric(rows[1].E2E.Micros(), "slow-e2e-us")
		b.ReportMetric(rows[1].Crypto.Micros(), "slow-crypto-us")
	}
}

// ----- Figure 10: non-equivocation mechanisms ---------------------------

func BenchmarkFig10_CTBFast_16B(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		rec := bench.NonEquivCTB(1, ctbcast.FastOnly, 16, samples(b, 300))
		b.ReportMetric(rec.Median().Micros(), "median-us")
	}
}

func BenchmarkFig10_CTBSlow_16B(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		rec := bench.NonEquivCTB(1, ctbcast.SlowOnly, 16, samples(b, 60))
		b.ReportMetric(rec.Median().Micros(), "median-us")
	}
}

func BenchmarkFig10_SGX_16B(b *testing.B) {
	for b.Loop() {
		rec := bench.NonEquivSGX(1, 16, samples(b, 300))
		b.ReportMetric(rec.Median().Micros(), "median-us")
	}
}

// ----- Figure 11: CTBcast tail vs tail latency --------------------------

func fig11Case(b *testing.B, tail int) {
	b.Helper()
	b.ReportAllocs()
	for b.Loop() {
		s := bench.NewUBFTSystem(cluster.Options{Seed: 1, Tail: tail, MsgCap: 4096})
		rec := bench.RunClosedLoop(s, bench.NewFlipWorkload(64, rand.New(rand.NewSource(1))), 20, samples(b, 400))
		s.Stop()
		b.ReportMetric(rec.Percentile(90).Micros(), "p90-us")
		b.ReportMetric(rec.Percentile(99).Micros(), "p99-us")
	}
}

func BenchmarkFig11_Tail16(b *testing.B)  { fig11Case(b, 16) }
func BenchmarkFig11_Tail32(b *testing.B)  { fig11Case(b, 32) }
func BenchmarkFig11_Tail64(b *testing.B)  { fig11Case(b, 64) }
func BenchmarkFig11_Tail128(b *testing.B) { fig11Case(b, 128) }

// ----- Table 2: memory consumption --------------------------------------

func BenchmarkTable2_Memory(b *testing.B) {
	for b.Loop() {
		rows := bench.Table2(1)
		for _, r := range rows {
			if r.ReqSize == 64 && r.Tail == 128 {
				b.ReportMetric(float64(r.LocalBytes)/(1<<20), "local-MiB-t128")
				b.ReportMetric(float64(r.DisagActual)/1024, "disag-KiB-t128")
			}
		}
	}
}

// ----- §9: throughput ----------------------------------------------------

func BenchmarkThroughput_Depth1(b *testing.B) {
	for b.Loop() {
		s := bench.NewUBFTFast(1, nil)
		ops, _ := bench.RunPipelined(s, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), 1, samples(b, 400))
		s.Stop()
		b.ReportMetric(ops/1000, "kops")
	}
}

func BenchmarkThroughput_Depth2(b *testing.B) {
	for b.Loop() {
		s := bench.NewUBFTFast(1, nil)
		ops, _ := bench.RunPipelined(s, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), 2, samples(b, 400))
		s.Stop()
		b.ReportMetric(ops/1000, "kops")
	}
}

// Extension (§9): leader-side batching, which the paper names as a further
// throughput optimization but does not implement. It is always on and
// self-clocked: eight requests in flight coalesce into shared consensus
// slots because they queue behind the one proposal the leader keeps open.
func BenchmarkThroughput_Batching(b *testing.B) {
	for b.Loop() {
		s := bench.NewUBFTSystem(cluster.Options{Seed: 1})
		ops, _ := bench.RunPipelined(s, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), 8, samples(b, 400))
		s.Stop()
		b.ReportMetric(ops/1000, "kops")
	}
}

// ----- Ablations (docs/ARCHITECTURE.md) ----------------------------------

// Ablation: force the slow path everywhere — the cost of signatures on the
// critical path, i.e. what uBFT's fast path buys.
func BenchmarkAblation_NoFastPath(b *testing.B) {
	for b.Loop() {
		s := bench.NewUBFTSlow(1, nil)
		reportLatency(b, s, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), samples(b, 60))
	}
}

// Ablation: disable the Echo round (§5.4) — lower latency but a Byzantine
// client could stall slots.
func BenchmarkAblation_NoEchoRound(b *testing.B) {
	for b.Loop() {
		s := bench.NewUBFTNoEcho(1)
		reportLatency(b, s, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), samples(b, 400))
	}
}

// Ablation: CTBcast in eager both-paths mode (Algorithm 1 as printed) —
// signatures run alongside the fast path.
func BenchmarkAblation_EagerBothPaths(b *testing.B) {
	for b.Loop() {
		s := bench.NewUBFTSystem(cluster.Options{Seed: 1, CTBMode: ctbcast.BothEager})
		reportLatency(b, s, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), samples(b, 60))
	}
}

// Ablation: smaller register-replication quorum (f_m = 0: one memory
// node, no fault tolerance) — measures the cost of register replication.
func BenchmarkAblation_SingleMemNode(b *testing.B) {
	for b.Loop() {
		s := bench.NewUBFTSystem(cluster.Options{
			Seed: 1, Fm: 0, DisableFastPath: true, CTBMode: ctbcast.SlowOnly,
		})
		reportLatency(b, s, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), samples(b, 60))
	}
}

// Sanity: the headline comparison (README.md, "Running").
func BenchmarkHeadline_UBFTvsMinBFT(b *testing.B) {
	for b.Loop() {
		fast := bench.NewUBFTFast(1, nil)
		recF := bench.RunClosedLoop(fast, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), 10, samples(b, 200))
		fast.Stop()
		mb := bench.NewMinBFTSystem(1, MinBFTVanilla, nil)
		recM := bench.RunClosedLoop(mb, bench.NewFlipWorkload(32, rand.New(rand.NewSource(1))), 5, samples(b, 50))
		mb.Stop()
		b.ReportMetric(recF.Median().Micros(), "ubft-fast-us")
		b.ReportMetric(recM.Median().Micros(), "minbft-vanilla-us")
		b.ReportMetric(recM.Median().Micros()/recF.Median().Micros(), "speedup-x")
	}
}

var _ = sim.Microsecond // keep the sim import for metric docs
