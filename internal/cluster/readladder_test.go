package cluster_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/sim"
)

// The read escalation ladder (consensus/rpc.go) through a single group of
// three replicas, f = 1: a read asks f+1 = 2 replicas first, the third only
// when those two cannot supply the quorum.

const widenDeadline = 250 * sim.Microsecond // half the default read timeout

func kvCluster(opts cluster.Options) *cluster.UBFT {
	opts.NewApp = func() app.StateMachine { return app.NewKV(0) }
	return cluster.NewUBFT(opts)
}

// ladderStream drives one client in a closed loop, one operation at a time:
// every writeEvery-th operation is an ordered SET of the key to a fresh
// value (0 = never), the others are unordered GETs that must return the
// last value written (read-your-writes) at a version at or above the floor
// the client held when it asked.
type ladderStream struct {
	t          *testing.T
	u          *cluster.UBFT
	key        []byte
	writeEvery int

	n    int
	last []byte
	slow int // reads that took at least the widen deadline
}

func (s *ladderStream) run(ops int) {
	s.t.Helper()
	c := s.u.Client(0)
	for i := 0; i < ops; i++ {
		s.n++
		if s.last == nil || (s.writeEvery > 0 && s.n%s.writeEvery == 0) {
			val := []byte(fmt.Sprintf("v%05d", s.n))
			res, _, err := s.u.InvokeSync(0, app.EncodeKVSet(s.key, val), 100*sim.Millisecond)
			if err != nil || len(res) != 1 || res[0] != app.KVStored {
				s.t.Fatalf("op %d: write: res=%v err=%v", s.n, res, err)
			}
			s.last = val
			continue
		}
		var (
			fired    bool
			got      []byte
			at       consensus.Slot
			fellBack bool
			lat      sim.Duration
		)
		floor := c.ReadFloor(0)
		c.CallAt(0, app.EncodeKVGet(s.key), consensus.Mode{Read: true}, func(o consensus.Outcome) {
			fired, got, at, fellBack, lat = true, o.Result, o.Slot, o.FellBack, o.Latency
		})
		if err := cluster.SyncWait(s.u.Eng, 100*sim.Millisecond, func() bool { return fired }); err != nil {
			s.t.Fatalf("op %d: read did not complete: %v", s.n, err)
		}
		if fellBack {
			s.t.Fatalf("op %d: read fell back to the ordered path", s.n)
		}
		if at < floor {
			s.t.Fatalf("op %d: read accepted at version %d below the client's floor %d", s.n, at, floor)
		}
		if len(got) == 0 || got[0] != app.KVOK || !bytes.HasSuffix(got, s.last) {
			s.t.Fatalf("op %d: read %q, want the value %q", s.n, got, s.last)
		}
		if lat >= widenDeadline {
			s.slow++
		}
	}
}

func served(u *cluster.UBFT) []uint64 {
	out := make([]uint64, len(u.Replicas))
	for i, r := range u.Replicas {
		out[i] = r.ReadsServed
	}
	return out
}

// checkShares asserts every replica executed (f+1)/n of the reads, within
// 5% of that share.
func checkShares(t *testing.T, what string, before, after []uint64, reads uint64) {
	t.Helper()
	want := float64(reads) * 2 / 3
	for i := range after {
		if got := float64(after[i] - before[i]); got < want*0.95 || got > want*1.05 {
			t.Errorf("%s: replica %d executed %.0f of %d reads, want %.0f +-5%%", what, i, got, reads, want)
		}
	}
}

// TestReadLadderFaultFree: exactly f+1 replicas execute each read, the work
// rotates evenly over the group, and nothing widens or falls back.
func TestReadLadderFaultFree(t *testing.T) {
	u := kvCluster(cluster.Options{Seed: 3})
	defer u.Stop()
	s := &ladderStream{t: t, u: u, key: []byte("k")}
	s.run(1) // the write
	const reads = 600
	before := served(u)
	s.run(reads)
	after := served(u)

	c := u.Client(0)
	if c.FastReads != reads || c.ReadWidens != 0 || c.ReadFallbacks != 0 {
		t.Fatalf("fast=%d widens=%d fallbacks=%d, want %d/0/0", c.FastReads, c.ReadWidens, c.ReadFallbacks, reads)
	}
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total != 2*reads {
		t.Fatalf("replicas executed %d reads for %d accepted, want exactly f+1 = 2 each", total, reads)
	}
	checkShares(t, "fault-free", before, after, reads)
}

// TestReadLadderKilledReplica: with a follower dead, reads keep completing
// on the unordered path. One read pays the widen deadline — the first that
// asks the dead replica — after which the client passes it over; once it is
// back and answers a probe it takes its share of the reads again.
func TestReadLadderKilledReplica(t *testing.T) {
	u := kvCluster(cluster.Options{
		Seed:              5,
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	defer u.Stop()
	const victim = 2
	s := &ladderStream{t: t, u: u, key: []byte("k"), writeEvery: 8}
	s.run(40)

	if err := u.KillReplica(victim); err != nil {
		t.Fatal(err)
	}
	s.run(400)
	c := u.Client(0)
	if s.slow != 1 || c.ReadWidens != 1 {
		t.Fatalf("with a dead replica %d reads waited out the widen deadline and %d widened, want 1 and 1", s.slow, c.ReadWidens)
	}

	if err := u.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; u.Replicas[victim].Recovering(); i++ {
		if i == 100 {
			t.Fatal("victim still rejoining after 1000 ops")
		}
		s.run(10)
	}
	s.writeEvery = 0
	s.run(2 * 64) // two probe periods: the rejoined replica is found again
	before := served(u)
	s.run(600)
	checkShares(t, "after restart", before, served(u), 600)
	// The rejoined replica works off a backlog of signed slow-path traffic
	// and may sit on a read past the deadline once or twice more.
	if s.slow > 3 || c.ReadFallbacks != 0 {
		t.Fatalf("%d reads waited out the widen deadline, %d fell back, want at most 3 and 0", s.slow, c.ReadFallbacks)
	}
}

// TestReadLadderLaggingReplica: a follower cut off from its peers stops
// executing, so its replies fall below the client's floor. They are never
// counted: the read widens to the third replica instead of accepting a
// stale version or falling back, and the laggard is passed over until it
// has caught up.
func TestReadLadderLaggingReplica(t *testing.T) {
	u := kvCluster(cluster.Options{
		Seed:          2,
		Window:        8,
		Tail:          8,
		SlowPathDelay: 100 * sim.Microsecond,
	})
	defer u.Stop()
	const laggard = 2
	s := &ladderStream{t: t, u: u, key: []byte("k"), writeEvery: 8}
	s.run(20)

	u.Net.Partition(u.ReplicaIDs[laggard], u.ReplicaIDs[0])
	u.Net.Partition(u.ReplicaIDs[laggard], u.ReplicaIDs[1])
	stuck := u.Replicas[laggard].LastApplied()
	s.run(200) // every read is checked against the floor in run
	c := u.Client(0)
	if got := u.Replicas[laggard].LastApplied(); got != stuck {
		t.Fatalf("partitioned replica advanced from %d to %d", stuck, got)
	}
	if c.ReadWidens == 0 || c.ReadWidens > 4 || s.slow != 0 {
		t.Fatalf("%d widens, %d reads waited out the deadline; want a stale reply to widen at once, and the laggard passed over after", c.ReadWidens, s.slow)
	}

	u.Net.HealAll()
	u.Eng.RunFor(200 * sim.Millisecond)
	s.run(200)
	u.Eng.RunFor(200 * sim.Millisecond)
	s.writeEvery = 0
	s.run(2 * 64) // two probe periods: the laggard, caught up, is found again
	before := served(u)
	s.run(600)
	checkShares(t, "after heal", before, served(u), 600)
	if c.ReadFallbacks != 0 {
		t.Fatalf("%d reads fell back", c.ReadFallbacks)
	}
}
