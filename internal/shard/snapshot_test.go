package shard_test

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestSnapshotScatterIsolation: with fast reads on, a scatter-gather read
// racing a committing cross-shard transaction observes either the whole
// transaction or none of it, at every interleaving offset, for every
// transactional app — the MVCC pin protocol's acceptance bar. The old
// frontier-retry heuristic could return a pre/post mix when a leg's read
// landed after the commit on one shard while its sibling read
// pre-transaction state; pinned legs are accepted only when provably
// clean, so the anomaly cannot survive any offset.
func TestSnapshotScatterIsolation(t *testing.T) {
	const shards = 2
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			for off := sim.Duration(0); off <= 200*sim.Microsecond; off += 20 * sim.Microsecond {
				d := shard.New(shard.Options{
					Seed:       5,
					Shards:     shards,
					NumClients: 2,
					NewApp:     sa.newApp,
					FastReads:  true,
				})
				k0 := keyOnShard(t, 0, shards, 0)
				k1 := keyOnShard(t, 1, shards, 0)
				for _, k := range [][]byte{k0, k1} {
					if res, _, err := d.InvokeSync(0, sa.seed(k, "old"), 50*sim.Millisecond); err != nil || !sa.wrote(res) {
						t.Fatalf("seed write: res=%v err=%v", res, err)
					}
				}

				if _, err := d.Client(0).Invoke(sa.write(k0, k1, "new"), func([]byte, sim.Duration) {}); err != nil {
					t.Fatalf("write: %v", err)
				}
				d.Eng.RunFor(off)
				var read []byte
				if _, err := d.Client(1).Invoke(sa.read(k0, k1), func(res []byte, _ sim.Duration) { read = res }); err != nil {
					t.Fatalf("read: %v", err)
				}
				d.Eng.RunFor(50 * sim.Millisecond)
				if len(read) == 0 || read[0] != app.StatusOK {
					t.Fatalf("offset %v: read result %v", off, read)
				}
				v0, v1 := sa.readVals(t, read)
				if v0 != v1 {
					t.Fatalf("offset %v: torn snapshot read — k0=%q k1=%q", off, v0, v1)
				}
				d.Stop()
			}
		})
	}
}

// TestSnapshotScatterGenerations hammers the pin protocol: a writer
// commits cross-shard generation after generation while a reader fires
// snapshot scatter reads throughout. Every read must land entirely inside
// one generation — sustained write pressure exhausts pin rounds and
// exercises the degraded ordered stage too, which must be just as torn-
// free here (parked legs + the parked-gated revalidation).
func TestSnapshotScatterGenerations(t *testing.T) {
	const (
		shards = 2
		gens   = 12
	)
	d := shard.New(shard.Options{
		Seed:       17,
		Shards:     shards,
		NumClients: 2,
		NewApp:     func(int) app.StateMachine { return app.NewKV(0) },
		FastReads:  true,
	})
	defer d.Stop()
	k0 := keyOnShard(t, 0, shards, 0)
	k1 := keyOnShard(t, 1, shards, 0)
	for _, k := range [][]byte{k0, k1} {
		if res, _, err := d.InvokeSync(0, app.EncodeKVSet(k, []byte("g-00")), 50*sim.Millisecond); err != nil || res[0] != app.KVStored {
			t.Fatalf("seed write: res=%v err=%v", res, err)
		}
	}

	var reads [][]byte
	fireRead := func() {
		i := len(reads)
		reads = append(reads, nil)
		if _, err := d.Client(1).Invoke(app.EncodeKVMGet(k0, k1), func(res []byte, _ sim.Duration) { reads[i] = res }); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	for gen := 1; gen <= gens; gen++ {
		val := []byte(fmt.Sprintf("g-%02d", gen))
		wrote := false
		write := app.EncodeKVMSet(app.Pair{Key: k0, Val: val}, app.Pair{Key: k1, Val: val})
		if _, err := d.Client(0).Invoke(write, func(res []byte, _ sim.Duration) {
			if len(res) == 0 || res[0] != app.StatusOK {
				t.Errorf("generation %d aborted: %v", gen, res)
			}
			wrote = true
		}); err != nil {
			t.Fatalf("write: %v", err)
		}
		// A few reads spread across the 2PC window (before prepare, mid
		// lock, around commit) — bounded, so the reader never starves the
		// writer into a prepare timeout.
		for _, gap := range []sim.Duration{20 * sim.Microsecond, 60 * sim.Microsecond, 60 * sim.Microsecond} {
			d.Eng.RunFor(gap)
			fireRead()
		}
		for i := 0; !wrote; i++ {
			if i > 10000 {
				t.Fatalf("generation %d never resolved", gen)
			}
			d.Eng.RunFor(25 * sim.Microsecond)
		}
	}
	d.Eng.RunFor(50 * sim.Millisecond)

	if len(reads) < gens {
		t.Fatalf("only %d reads fired", len(reads))
	}
	for i, res := range reads {
		if len(res) == 0 || res[0] != app.StatusOK {
			t.Fatalf("read %d: result %v", i, res)
		}
		legs, ok := decodeKeyedReads(res)
		if !ok || len(legs) != 2 {
			t.Fatalf("read %d: malformed %v", i, res)
		}
		if legs[0] != legs[1] {
			t.Fatalf("read %d: torn generations — k0=%q k1=%q", i, legs[0], legs[1])
		}
	}
}

// decodePointGet unpacks a single-key KVGet response.
func decodePointGet(t *testing.T, res []byte) string {
	t.Helper()
	if len(res) == 0 || res[0] != app.KVOK {
		t.Fatalf("point read result %v", res)
	}
	rd := wire.NewReader(res)
	rd.U8()
	v := rd.Bytes()
	if rd.Done() != nil {
		t.Fatalf("point read result %v", res)
	}
	return string(v)
}

// TestStrongReadSeesAcknowledgedWrite: with StrongReads on, a point read
// from a second client always observes the value whose write completed
// before the read began (real-time order across clients — the guarantee
// the f+1 fast path deliberately does not make), and on a clean fabric the
// strong 2f+1 quorum actually serves it (no fallbacks).
func TestStrongReadSeesAcknowledgedWrite(t *testing.T) {
	d := shard.New(shard.Options{
		Seed:        3,
		Shards:      1,
		NumClients:  2,
		NewApp:      func(int) app.StateMachine { return app.NewKV(0) },
		StrongReads: true,
	})
	defer d.Stop()
	key := keyOnShard(t, 0, 1, 0)
	for i := 0; i < 8; i++ {
		val := fmt.Sprintf("v%03d", i)
		if res, _, err := d.InvokeSync(0, app.EncodeKVSet(key, []byte(val)), 50*sim.Millisecond); err != nil || res[0] != app.KVStored {
			t.Fatalf("write %d: res=%v err=%v", i, res, err)
		}
		res, _, err := d.InvokeSync(1, app.EncodeKVGet(key), 50*sim.Millisecond)
		if err != nil {
			t.Fatalf("strong read %d: %v", i, err)
		}
		if got := decodePointGet(t, res); got != val {
			t.Fatalf("strong read %d = %q, want %q (stale despite completed write)", i, got, val)
		}
	}
	if d.Client(1).StrongReadStats() == 0 {
		t.Fatal("no read was served by the strong quorum")
	}
	if _, fb := d.Client(1).ReadStats(); fb != 0 {
		t.Fatalf("%d fallbacks on a clean fabric, want 0", fb)
	}
}

// TestStrongReadLinearizableUnderLossyFabric: the strong mode's guarantee
// under a pre-GST lossy, delaying fabric with view changes enabled — every
// strong read still returns exactly the latest acknowledged write (the
// fallback path is ordered, hence linearizable, so the guarantee holds
// whether or not the strong quorum forms), deterministically per seed.
func TestStrongReadLinearizableUnderLossyFabric(t *testing.T) {
	const rounds = 10
	run := func() (string, uint64, uint64) {
		d := shard.New(shard.Options{
			Seed:        31,
			Shards:      1,
			NumClients:  2,
			NewApp:      func(int) app.StateMachine { return app.NewKV(0) },
			StrongReads: true,
			Group: cluster.Options{Fabric: simnet.AsFabric(simnet.New(sim.NewEngine(31), simnet.Options{
				BaseLatency:   2 * sim.Microsecond,
				Jitter:        sim.Microsecond / 2,
				GST:           sim.Time(20 * sim.Millisecond),
				AsyncExtraMax: 2 * sim.Millisecond,
				AsyncDropProb: 0.10,
			}))},
		})
		defer d.Stop()
		key := keyOnShard(t, 0, 1, 0)
		var trace []byte
		for i := 0; i < rounds; i++ {
			val := []byte(fmt.Sprintf("v%03d", i))
			for attempt := 0; ; attempt++ {
				res, _, err := d.InvokeSync(0, app.EncodeKVSet(key, val), 30*sim.Millisecond)
				if err == nil && len(res) == 1 && res[0] == app.KVStored {
					break
				}
				if attempt > 10 {
					t.Fatalf("write %d never landed: res=%v err=%v", i, res, err)
				}
			}
			var got string
			for attempt := 0; ; attempt++ {
				res, _, err := d.InvokeSync(1, app.EncodeKVGet(key), 30*sim.Millisecond)
				if err == nil && len(res) > 0 && res[0] == app.KVOK {
					got = decodePointGet(t, res)
					break
				}
				if attempt > 10 {
					t.Fatalf("read %d never resolved: res=%v err=%v", i, res, err)
				}
			}
			// The write above completed before this read began and nothing
			// wrote since: any other value breaks linearizability.
			if got != string(val) {
				t.Fatalf("round %d: strong read %q after acknowledged write %q", i, got, val)
			}
			trace = append(trace, got...)
		}
		strong := d.Client(1).StrongReadStats()
		_, fb := d.Client(1).ReadStats()
		return string(trace), strong, fb
	}
	t1, s1, b1 := run()
	t2, s2, b2 := run()
	if t1 != t2 || s1 != s2 || b1 != b2 {
		t.Fatalf("lossy-fabric strong reads not deterministic: (%q,%d,%d) vs (%q,%d,%d)", t1, s1, b1, t2, s2, b2)
	}
	if s1 == 0 && b1 == 0 {
		t.Fatal("no reads recorded")
	}
}
