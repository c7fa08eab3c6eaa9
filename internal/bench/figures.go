package bench

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/app"
	"repro/internal/baselines/minbft"
	"repro/internal/cluster"
	"repro/internal/ctbcast"
	"repro/internal/latmodel"
	"repro/internal/sim"
)

// Defaults scale sample counts; the paper takes >=10,000 measurements,
// which the CLI can request with -samples.
const (
	DefaultFastSamples = 1500
	DefaultSlowSamples = 200
)

// ---------------------------------------------------------------------
// Figure 7: end-to-end application latency.
// ---------------------------------------------------------------------

// Fig7Row is one (application, system) cell with the paper's percentiles.
type Fig7Row struct {
	App    string
	System string
	P50    sim.Duration
	P90    sim.Duration
	P95    sim.Duration
}

// Fig7 measures Flip, Memcached-like, Liquibook-like and Redis-like under
// Unreplicated, Mu and uBFT's fast path (paper Figure 7).
func Fig7(seed int64, samples int) []Fig7Row {
	if samples <= 0 {
		samples = DefaultFastSamples
	}
	type appCase struct {
		name string
		mk   func() app.StateMachine
		wl   func(*rand.Rand) Workload
	}
	appCases := []appCase{
		{"Flip", func() app.StateMachine { return app.NewFlip() },
			func(r *rand.Rand) Workload { return NewFlipWorkload(32, r) }},
		{"Memc", func() app.StateMachine { return app.NewKV(0) },
			func(r *rand.Rand) Workload { return NewKVWorkload(r) }},
		{"Liquibook", func() app.StateMachine { return app.NewOrderBook() },
			func(r *rand.Rand) Workload { return NewOrderWorkload(r) }},
		{"Redis", func() app.StateMachine { return app.NewRKV() },
			func(r *rand.Rand) Workload { return NewRKVWorkload(r) }},
	}
	systems := []struct {
		name string
		mk   func(mkApp func() app.StateMachine) System
	}{
		{"Unreplicated", func(mk func() app.StateMachine) System { return NewUnreplSystem(seed, mk) }},
		{"Mu", func(mk func() app.StateMachine) System { return NewMuSystem(seed, mk) }},
		{"uBFT fast path", func(mk func() app.StateMachine) System { return NewUBFTFast(seed, mk) }},
	}
	var rows []Fig7Row
	for _, ac := range appCases {
		for _, sys := range systems {
			s := sys.mk(ac.mk)
			rec := RunClosedLoop(s, ac.wl(rand.New(rand.NewSource(seed))), 20, samples)
			s.Stop()
			rows = append(rows, Fig7Row{
				App: ac.name, System: sys.name,
				P50: rec.Percentile(50), P90: rec.Percentile(90), P95: rec.Percentile(95),
			})
		}
	}
	return rows
}

// PrintFig7 renders Figure 7's data as a table.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintf(w, "Figure 7: end-to-end application latency (p90, with p50/p95 whiskers)\n")
	fmt.Fprintf(w, "%-10s %-16s %10s %10s %10s\n", "App", "System", "p50", "p90", "p95")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-16s %10v %10v %10v\n", r.App, r.System, r.P50, r.P90, r.P95)
	}
}

// ---------------------------------------------------------------------
// Figure 8: median latency vs request size across all six systems.
// ---------------------------------------------------------------------

// Fig8Sizes are the request sizes swept (4 B to 8 KiB, log scale).
var Fig8Sizes = []int{4, 16, 64, 256, 1024, 4096, 8192}

// Fig8Row is one request size with every system's median latency.
type Fig8Row struct {
	Size    int
	Medians map[string]sim.Duration
}

// Fig8Systems names the six configurations in the paper's order.
var Fig8Systems = []string{
	"Unrepl.", "Mu", "uBFT fast path", "uBFT slow path", "MinBFT HMAC", "MinBFT (Vanilla)",
}

// Fig8 sweeps request sizes over a no-op (Flip) application for all six
// system configurations (paper Figure 8).
func Fig8(seed int64, fastSamples, slowSamples int) []Fig8Row {
	if fastSamples <= 0 {
		fastSamples = DefaultFastSamples / 2
	}
	if slowSamples <= 0 {
		slowSamples = DefaultSlowSamples
	}
	mkFlip := func() app.StateMachine { return app.NewFlip() }
	mk := map[string]func() System{
		"Unrepl.":          func() System { return NewUnreplSystem(seed, mkFlip) },
		"Mu":               func() System { return NewMuSystem(seed, mkFlip) },
		"uBFT fast path":   func() System { return NewUBFTFast(seed, mkFlip) },
		"uBFT slow path":   func() System { return NewUBFTSlow(seed, mkFlip) },
		"MinBFT HMAC":      func() System { return NewMinBFTSystem(seed, minbft.HMACClients, mkFlip) },
		"MinBFT (Vanilla)": func() System { return NewMinBFTSystem(seed, minbft.Vanilla, mkFlip) },
	}
	slow := map[string]bool{
		"uBFT slow path": true, "MinBFT HMAC": true, "MinBFT (Vanilla)": true,
	}
	var rows []Fig8Row
	for _, size := range Fig8Sizes {
		row := Fig8Row{Size: size, Medians: make(map[string]sim.Duration)}
		for _, name := range Fig8Systems {
			n := fastSamples
			if slow[name] {
				n = slowSamples
			}
			s := mk[name]()
			rec := RunClosedLoop(s, NewFlipWorkload(size, rand.New(rand.NewSource(seed))), 10, n)
			s.Stop()
			row.Medians[name] = rec.Median()
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintFig8 renders Figure 8's series.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintf(w, "Figure 8: median end-to-end latency vs request size (no-op app)\n")
	fmt.Fprintf(w, "%-8s", "Size(B)")
	for _, s := range Fig8Systems {
		fmt.Fprintf(w, " %16s", s)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d", r.Size)
		for _, s := range Fig8Systems {
			fmt.Fprintf(w, " %16v", r.Medians[s])
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------
// Figure 9: latency breakdown of the fast and slow paths.
// ---------------------------------------------------------------------

// Fig9Breakdown decomposes one path's end-to-end latency. Component
// durations are measured (E2E, RPC, CTB are run in isolation; SMR is the
// remainder); the primitive rows decompose E2E by cost-model accounting of
// the operations on the critical path, the same recursive presentation the
// paper uses.
type Fig9Breakdown struct {
	Path string // "fast" or "slow"
	E2E  sim.Duration
	RPC  sim.Duration
	CTB  sim.Duration
	SMR  sim.Duration

	P2P    sim.Duration
	Crypto sim.Duration
	SWMR   sim.Duration
	Other  sim.Duration
}

// Fig9 reproduces the recursive latency decomposition for 8 B Flip
// requests (paper Figure 9).
func Fig9(seed int64, samples int) []Fig9Breakdown {
	if samples <= 0 {
		samples = DefaultSlowSamples
	}
	mkFlip := func() app.StateMachine { return app.NewFlip() }
	wl := func() Workload { return NewFlipWorkload(8, rand.New(rand.NewSource(seed))) }

	// Measured medians.
	fastSys := NewUBFTFast(seed, mkFlip)
	fastE2E := RunClosedLoop(fastSys, wl(), 20, samples).Median()
	fastSys.Stop()
	slowSys := NewUBFTSlow(seed, mkFlip)
	slowE2E := RunClosedLoop(slowSys, wl(), 10, samples).Median()
	slowSys.Stop()
	unrepl := NewUnreplSystem(seed, mkFlip)
	rpc := RunClosedLoop(unrepl, wl(), 20, samples).Median()
	unrepl.Stop()
	ctbFast := NonEquivCTB(seed, ctbcast.FastOnly, 8, samples).Median()
	ctbSlow := NonEquivCTB(seed, ctbcast.SlowOnly, 8, samples/2+1).Median()

	hop := latmodel.WireBase + 2*latmodel.DispatchCost

	// Fast path: 8 one-way hops on the critical path (request, echo x2,
	// LOCK, LOCKED, WILL_CERTIFY, WILL_COMMIT, response), no crypto, no
	// registers.
	fast := Fig9Breakdown{
		Path: "fast",
		E2E:  fastE2E,
		RPC:  rpc + 2*hop, // client RPC plus the echo round
		CTB:  ctbFast,
		P2P:  8 * hop,
	}
	fast.SMR = fast.E2E - fast.RPC - fast.CTB
	if fast.SMR < 0 {
		fast.SMR = 0
	}
	fast.Other = fast.E2E - fast.P2P
	if fast.Other < 0 {
		fast.Other = 0
	}

	// Slow path crypto on the critical path: the broadcaster signs SIGNED
	// and CERTIFY (2 signs); a replica verifies the SIGNED prepare, its
	// own register read-back plus two peers' register values, f+1 CERTIFY
	// shares and the f+1 signatures inside a COMMIT certificate.
	signs := 2 * (latmodel.SignCost + latmodel.CryptoDispatchCost)
	verifies := 7 * (latmodel.VerifyCost + latmodel.CryptoDispatchCost)
	// SWMR: one register WRITE and one parallel READ per CTBcast slow
	// delivery, two CTBcast rounds (PREPARE, COMMIT) on the critical path.
	swmrOp := 2 * (2*latmodel.WireBase + 4*latmodel.DispatchCost)
	slow := Fig9Breakdown{
		Path:   "slow",
		E2E:    slowE2E,
		RPC:    rpc + 2*hop,
		CTB:    ctbSlow,
		P2P:    10 * hop,
		Crypto: signs + verifies,
		SWMR:   2 * swmrOp,
	}
	slow.SMR = slow.E2E - slow.RPC - slow.CTB
	if slow.SMR < 0 {
		slow.SMR = 0
	}
	slow.Other = slow.E2E - slow.P2P - slow.Crypto - slow.SWMR
	if slow.Other < 0 {
		slow.Other = 0
	}
	return []Fig9Breakdown{fast, slow}
}

// PrintFig9 renders the breakdown.
func PrintFig9(w io.Writer, rows []Fig9Breakdown) {
	fmt.Fprintf(w, "Figure 9: recursive latency decomposition (8 B Flip requests)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "[%s path] E2E=%v\n", r.Path, r.E2E)
		fmt.Fprintf(w, "  components: RPC=%v CTB=%v SMR=%v\n", r.RPC, r.CTB, r.SMR)
		fmt.Fprintf(w, "  primitives: P2P=%v Crypto=%v SWMR=%v Other=%v\n", r.P2P, r.Crypto, r.SWMR, r.Other)
	}
}

// ---------------------------------------------------------------------
// Figure 10: non-equivocation mechanisms.
// ---------------------------------------------------------------------

// Fig10Sizes are the message sizes swept.
var Fig10Sizes = []int{4, 16, 64, 256, 1024, 4096}

// Fig10Row is one message size with each mechanism's median latency.
type Fig10Row struct {
	Size    int
	CTBFast sim.Duration
	CTBSlow sim.Duration
	SGX     sim.Duration
}

// Fig10 measures CTBcast fast/slow and the SGX counter (paper Figure 10).
func Fig10(seed int64, fastSamples, slowSamples int) []Fig10Row {
	if fastSamples <= 0 {
		fastSamples = DefaultFastSamples / 2
	}
	if slowSamples <= 0 {
		slowSamples = DefaultSlowSamples
	}
	var rows []Fig10Row
	for _, size := range Fig10Sizes {
		rows = append(rows, Fig10Row{
			Size:    size,
			CTBFast: NonEquivCTB(seed, ctbcast.FastOnly, size, fastSamples).Median(),
			CTBSlow: NonEquivCTB(seed, ctbcast.SlowOnly, size, slowSamples).Median(),
			SGX:     NonEquivSGX(seed, size, fastSamples).Median(),
		})
	}
	return rows
}

// PrintFig10 renders the mechanism comparison.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "Figure 10: median non-equivocation latency vs message size\n")
	fmt.Fprintf(w, "%-8s %14s %14s %14s\n", "Size(B)", "CTB fast", "CTB slow", "SGX")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %14v %14v %14v\n", r.Size, r.CTBFast, r.CTBSlow, r.SGX)
	}
}

// ---------------------------------------------------------------------
// Figure 11: CTBcast tail vs client tail latency.
// ---------------------------------------------------------------------

// Fig11Tails are the tail parameters swept: the paper's, and t=8, the
// smallest tail whose summary window still fills since a summary certificate
// costs the broadcaster one share verification (t=16 no longer does).
var Fig11Tails = []int{8, 16, 32, 64, 128}

// Fig11Percentiles are the percentiles reported (80th..100th).
var Fig11Percentiles = []float64{80, 85, 90, 95, 97, 99, 99.5, 99.9, 100}

// Fig11Row is one (request size, tail) series.
type Fig11Row struct {
	ReqSize int
	Tail    int
	// Lat[i] is the latency at Fig11Percentiles[i].
	Lat []sim.Duration
}

// Fig11 runs uBFT's fast path with Flip under different CTBcast tails and
// reports high-percentile latency (paper Figure 11: small tails thrash
// because the double-buffered summary window fills).
func Fig11(seed int64, samples int) []Fig11Row {
	if samples <= 0 {
		samples = DefaultFastSamples
	}
	var rows []Fig11Row
	for _, reqSize := range []int{64, 2048} {
		for _, tail := range Fig11Tails {
			s := NewUBFTSystem(cluster.Options{
				Seed: seed, Tail: tail,
				MsgCap: 4096,
			})
			rec := RunClosedLoop(s, NewFlipWorkload(reqSize, rand.New(rand.NewSource(seed))), 30, samples)
			s.Stop()
			row := Fig11Row{ReqSize: reqSize, Tail: tail}
			for _, p := range Fig11Percentiles {
				row.Lat = append(row.Lat, rec.Percentile(p))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintFig11 renders the tail-latency table.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintf(w, "Figure 11: uBFT tail latency for different CTBcast tails\n")
	fmt.Fprintf(w, "%-8s %-6s", "Size(B)", "t")
	for _, p := range Fig11Percentiles {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("p%.4g", p))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-6d", r.ReqSize, r.Tail)
		for _, l := range r.Lat {
			fmt.Fprintf(w, " %9.1f", l.Micros())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(values in microseconds)\n")
}

// ---------------------------------------------------------------------
// Table 2: memory consumption.
// ---------------------------------------------------------------------

// Table2Row is one (request size, tail) memory measurement.
type Table2Row struct {
	ReqSize     int
	Tail        int
	LocalBytes  int // leader replica local memory
	DisagBytes  int // one memory node's allocated regions
	DisagActual int // measured allocation on memory node 0
}

// Table2 measures replica-local and disaggregated memory for the paper's
// parameter grid (Table 2).
func Table2(seed int64) []Table2Row {
	var rows []Table2Row
	for _, reqSize := range []int{64, 2048} {
		for _, tail := range Fig11Tails {
			u := cluster.NewUBFT(cluster.Options{
				Seed: seed, Tail: tail, MsgCap: max(reqSize, 64),
			})
			// Run a few requests so buffers are exercised.
			wl := NewFlipWorkload(reqSize, rand.New(rand.NewSource(seed)))
			for i := 0; i < 5; i++ {
				u.InvokeSync(0, wl.Next(), 50*sim.Millisecond)
			}
			row := Table2Row{
				ReqSize:     reqSize,
				Tail:        tail,
				LocalBytes:  u.Replicas[0].LocalBytes(),
				DisagBytes:  u.Replicas[0].DisaggregatedBytes() * len(u.ReplicaIDs),
				DisagActual: u.MemNodes[0].AllocatedBytes,
			}
			u.Stop()
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintTable2 renders the memory table.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: memory consumption vs CTBcast tail and request size\n")
	fmt.Fprintf(w, "%-8s %-6s %14s %16s %16s\n", "Size(B)", "t", "Local(MiB)", "Disag(KiB)", "DisagActual(KiB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-6d %14.2f %16.1f %16.1f\n",
			r.ReqSize, r.Tail,
			float64(r.LocalBytes)/(1<<20),
			float64(r.DisagBytes)/1024,
			float64(r.DisagActual)/1024)
	}
}

// ---------------------------------------------------------------------
// §9 throughput.
// ---------------------------------------------------------------------

// ThroughputRow reports closed-loop throughput at a given pipeline depth.
type ThroughputRow struct {
	Outstanding int
	OpsPerSec   float64
	P50         sim.Duration
}

// Throughput reproduces the §9 discussion: inverse-latency throughput at
// depth 1 and the ~2x gain from interleaving two requests.
func Throughput(seed int64, samples int) []ThroughputRow {
	if samples <= 0 {
		samples = DefaultFastSamples
	}
	var rows []ThroughputRow
	for _, depth := range []int{1, 2, 4} {
		s := NewUBFTFast(seed, func() app.StateMachine { return app.NewFlip() })
		ops, rec := RunPipelined(s, NewFlipWorkload(32, rand.New(rand.NewSource(seed))), depth, samples)
		s.Stop()
		row := ThroughputRow{Outstanding: depth, OpsPerSec: ops}
		if rec.Count() > 0 {
			row.P50 = rec.Median()
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintThroughput renders the throughput rows.
func PrintThroughput(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "Section 9 throughput: 32 B requests, closed loop\n")
	fmt.Fprintf(w, "%-12s %14s %12s\n", "Outstanding", "kops/s", "p50")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %14.1f %12v\n", r.Outstanding, r.OpsPerSec/1000, r.P50)
	}
}
