package bench

// Shape-regression tests: these assert the qualitative claims of the
// paper's figures so a refactor that silently breaks a mechanism (say,
// summary double-buffering) fails CI rather than just bending a curve.

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestFig11ThrashShape asserts Figure 11's mechanism: with a small CTBcast
// tail the summary window fills and a latency spike appears by the 90th
// percentile; with the paper's default t=128 the 99th percentile stays
// within a few microseconds of the median. The small tail is t=8: since the
// broadcaster takes its own summary share as signed and verifies only the
// one follower share the certificate lacks, the certificate forms within
// t=16's half window, and t=16 with 64 B requests went flat (p90 29.1 ->
// 11.2 us, p95 72.6 -> 11.3 us); at t=8 the spike is at p90 (72.9 us).
func TestFig11ThrashShape(t *testing.T) {
	run := func(tail int) *Recorder {
		s := NewUBFTSystem(cluster.Options{Seed: 1, Tail: tail, MsgCap: 4096})
		defer s.Stop()
		return RunClosedLoop(s, NewFlipWorkload(64, rand.New(rand.NewSource(1))), 20, 600)
	}
	small := run(8)
	large := run(128)

	// t=8: spike at p90 (well above 2x the median).
	if small.Percentile(90) < 2*small.Median() {
		t.Errorf("t=8 shows no thrashing: p50=%v p90=%v", small.Median(), small.Percentile(90))
	}
	// t=128: flat to p99 (within 25% of the median).
	if large.Percentile(99) > large.Median()*5/4 {
		t.Errorf("t=128 thrashes: p50=%v p99=%v", large.Median(), large.Percentile(99))
	}
}

// TestFig10Shape asserts the non-equivocation ordering and growth.
func TestFig10Shape(t *testing.T) {
	rows := Fig10(1, 150, 30)
	for _, r := range rows {
		if !(r.CTBFast < r.SGX && r.SGX < r.CTBSlow) {
			t.Errorf("size %d: ordering broken: fast=%v sgx=%v slow=%v",
				r.Size, r.CTBFast, r.SGX, r.CTBSlow)
		}
	}
	// Latency grows with message size for both CTB fast and SGX.
	if rows[len(rows)-1].CTBFast <= rows[0].CTBFast {
		t.Error("CTB fast latency not growing with size")
	}
	if rows[len(rows)-1].SGX <= rows[0].SGX {
		t.Error("SGX latency not growing with size")
	}
	// CTB fast beats SGX by a healthy factor at small sizes (paper: 6.5x).
	ratio := float64(rows[0].SGX) / float64(rows[0].CTBFast)
	if ratio < 3 {
		t.Errorf("CTB-fast/SGX advantage only %.1fx at 4B", ratio)
	}
}

// TestFig8Shape asserts the six-system ordering at small and large sizes.
func TestFig8Shape(t *testing.T) {
	rows := Fig8(1, 80, 20)
	for _, r := range rows {
		m := r.Medians
		if !(m["Unrepl."] < m["Mu"] && m["Mu"] < m["uBFT fast path"]) {
			t.Errorf("size %d: fast ordering broken: %v", r.Size, m)
		}
		if !(m["uBFT fast path"] < m["MinBFT HMAC"]) {
			t.Errorf("size %d: uBFT fast not below MinBFT: %v", r.Size, m)
		}
		if !(m["MinBFT HMAC"] < m["MinBFT (Vanilla)"]) {
			t.Errorf("size %d: HMAC not below vanilla: %v", r.Size, m)
		}
		// uBFT slow within the paper's envelope: faster than vanilla,
		// at most ~30% above HMAC.
		if m["uBFT slow path"] >= m["MinBFT (Vanilla)"] {
			t.Errorf("size %d: uBFT slow not faster than vanilla MinBFT", r.Size)
		}
		if float64(m["uBFT slow path"]) > 1.35*float64(m["MinBFT HMAC"]) {
			t.Errorf("size %d: uBFT slow %.0f%% above MinBFT HMAC (paper: <=24%%)",
				r.Size, 100*(float64(m["uBFT slow path"])/float64(m["MinBFT HMAC"])-1))
		}
	}
	// Monotonic growth with size for uBFT fast.
	for i := 1; i < len(rows); i++ {
		if rows[i].Medians["uBFT fast path"] < rows[i-1].Medians["uBFT fast path"] {
			t.Error("uBFT fast path latency not monotonic in size")
		}
	}
}

// TestHeadlineSpeedup asserts the abstract's two headline multipliers.
func TestHeadlineSpeedup(t *testing.T) {
	fast := NewUBFTFast(1, nil)
	recF := RunClosedLoop(fast, NewFlipWorkload(32, rand.New(rand.NewSource(1))), 10, 200)
	fast.Stop()
	mu := NewMuSystem(1, nil)
	recM := RunClosedLoop(mu, NewFlipWorkload(32, rand.New(rand.NewSource(1))), 10, 200)
	mu.Stop()

	// "Compared to Mu, uBFT increases end-to-end latency by only 2x".
	ratio := float64(recF.Median()) / float64(recM.Median())
	if ratio < 1.5 || ratio > 3.5 {
		t.Errorf("uBFT/Mu ratio %.2f outside the paper's ~2x", ratio)
	}
	// "end-to-end latency of as little as 10us".
	if recF.Median() > 15*sim.Microsecond {
		t.Errorf("uBFT fast median %v not microsecond-scale", recF.Median())
	}
}
