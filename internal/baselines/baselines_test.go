// Package baselines_test exercises the three comparison systems end to end
// through the cluster assembler, including the latency ordering the
// paper's evaluation depends on (Unreplicated < Mu < uBFT fast << MinBFT).
package baselines_test

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/baselines/minbft"
	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestUnreplicatedEcho(t *testing.T) {
	u := cluster.NewUnrepl(1, nil)
	res, lat, err := u.InvokeSync([]byte("abc"), 10*sim.Millisecond)
	if err != nil || string(res) != "cba" {
		t.Fatalf("result = %q, %v", res, err)
	}
	// The paper's unreplicated small-request floor is ~2.2 us.
	if lat < sim.Microsecond || lat > 6*sim.Microsecond {
		t.Fatalf("unreplicated latency = %v, want ~2.2us", lat)
	}
}

func TestMuReplicationAndLatency(t *testing.T) {
	m := cluster.NewMu(cluster.MuOptions{Seed: 1})
	defer m.Stop()
	var lats []sim.Duration
	for i := 0; i < 20; i++ {
		res, lat, err := m.InvokeSync([]byte("ab"), 10*sim.Millisecond)
		if err != nil || string(res) != "ba" {
			t.Fatalf("request %d: result %q, %v", i, res, err)
		}
		lats = append(lats, lat)
	}
	m.Eng.RunFor(5 * sim.Millisecond)
	// All replicas applied the log.
	for i, r := range m.Replicas {
		if r.Executed != 20 {
			t.Errorf("replica %d executed %d/20", i, r.Executed)
		}
	}
	// Mu's small-request latency is ~2x unreplicated (~4 us in Fig 7).
	if lats[10] < 2*sim.Microsecond || lats[10] > 10*sim.Microsecond {
		t.Errorf("Mu latency = %v, want a few us", lats[10])
	}
}

func TestMuStateConvergence(t *testing.T) {
	m := cluster.NewMu(cluster.MuOptions{Seed: 1, NewApp: func() app.StateMachine { return app.NewKV(0) }})
	defer m.Stop()
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if res, _, _ := m.InvokeSync(app.EncodeKVSet(k, []byte("v")), 10*sim.Millisecond); res == nil {
			t.Fatalf("set %d failed", i)
		}
	}
	m.Eng.RunFor(5 * sim.Millisecond)
	s0 := m.Apps[0].Snapshot()
	for i := 1; i < len(m.Apps); i++ {
		if string(s0) != string(m.Apps[i].Snapshot()) {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

func TestMuFailover(t *testing.T) {
	m := cluster.NewMu(cluster.MuOptions{Seed: 1, HeartbeatTimeout: 200 * sim.Microsecond})
	defer m.Stop()
	if res, _, _ := m.InvokeSync([]byte("xy"), 10*sim.Millisecond); string(res) != "yx" {
		t.Fatalf("bootstrap failed: %q", res)
	}
	m.Net.Node(m.IDs[0]).Proc().Crash()
	res, _, _ := m.InvokeSync([]byte("hi"), 50*sim.Millisecond)
	if string(res) != "ih" {
		t.Fatalf("failover request failed: %q", res)
	}
}

func TestMinBFTHMACVariant(t *testing.T) {
	m := cluster.NewMinBFT(cluster.MinBFTOptions{Seed: 1, Mode: minbft.HMACClients})
	res, lat, err := m.InvokeSync([]byte("ab"), 50*sim.Millisecond)
	if err != nil || string(res) != "ba" {
		t.Fatalf("result = %q, %v", res, err)
	}
	// Paper: HMAC-variant MinBFT minimum ~300+ us.
	if lat < 150*sim.Microsecond || lat > 800*sim.Microsecond {
		t.Errorf("MinBFT HMAC latency = %v, want a few hundred us", lat)
	}
}

func TestMinBFTVanillaSlowerThanHMAC(t *testing.T) {
	mh := cluster.NewMinBFT(cluster.MinBFTOptions{Seed: 1, Mode: minbft.HMACClients})
	_, latH, err := mh.InvokeSync([]byte("ab"), 50*sim.Millisecond)
	if err != nil {
		t.Fatalf("HMAC: %v", err)
	}
	mv := cluster.NewMinBFT(cluster.MinBFTOptions{Seed: 1, Mode: minbft.Vanilla})
	resV, latV, err := mv.InvokeSync([]byte("ab"), 50*sim.Millisecond)
	if err != nil || string(resV) != "ba" {
		t.Fatalf("vanilla result = %q, %v", resV, err)
	}
	if latV <= latH {
		t.Fatalf("vanilla (%v) should be slower than HMAC (%v)", latV, latH)
	}
	// Paper: vanilla minimum end-to-end latency ~566 us.
	if latV < 350*sim.Microsecond || latV > 1200*sim.Microsecond {
		t.Errorf("vanilla MinBFT latency = %v, want ~566us scale", latV)
	}
}

func TestMinBFTExecutesInOrderOnAllReplicas(t *testing.T) {
	m := cluster.NewMinBFT(cluster.MinBFTOptions{
		Seed: 1, Mode: minbft.HMACClients,
		NewApp: func() app.StateMachine { return app.NewKV(0) },
	})
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if res, _, _ := m.InvokeSync(app.EncodeKVSet(k, []byte("v")), 50*sim.Millisecond); res == nil {
			t.Fatalf("set %d failed", i)
		}
	}
	m.Eng.RunFor(10 * sim.Millisecond)
	for i, r := range m.Replicas {
		if r.Executed != 10 {
			t.Errorf("replica %d executed %d/10", i, r.Executed)
		}
	}
	s0 := m.Apps[0].Snapshot()
	for i := 1; i < len(m.Apps); i++ {
		if string(s0) != string(m.Apps[i].Snapshot()) {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

func TestLatencyOrderingAcrossSystems(t *testing.T) {
	// The paper's headline ordering for small requests:
	// unreplicated < Mu < uBFT fast path << MinBFT (HMAC) < MinBFT vanilla.
	latency := func(_ []byte, lat sim.Duration, err error) sim.Duration {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	un := cluster.NewUnrepl(1, nil)
	latU := latency(un.InvokeSync([]byte("ab"), 10*sim.Millisecond))

	m := cluster.NewMu(cluster.MuOptions{Seed: 1})
	defer m.Stop()
	latM := latency(m.InvokeSync([]byte("ab"), 10*sim.Millisecond))

	ub := cluster.NewUBFT(cluster.Options{Seed: 1})
	defer ub.Stop()
	// Warm once, then measure.
	ub.InvokeSync(0, []byte("ab"), 10*sim.Millisecond)
	latB := latency(ub.InvokeSync(0, []byte("ab"), 10*sim.Millisecond))

	mb := cluster.NewMinBFT(cluster.MinBFTOptions{Seed: 1, Mode: minbft.HMACClients})
	latMB := latency(mb.InvokeSync([]byte("ab"), 50*sim.Millisecond))

	if !(latU < latM && latM < latB && latB < latMB) {
		t.Fatalf("ordering violated: unrepl=%v mu=%v ubft=%v minbft=%v", latU, latM, latB, latMB)
	}
	// uBFT fast path must be >= 10x faster than MinBFT (paper: >50x vs
	// vanilla, and still an order of magnitude vs the HMAC variant).
	if latMB < 10*latB {
		t.Errorf("uBFT/MinBFT gap too small: ubft=%v minbft=%v", latB, latMB)
	}
}
