package shard_test

// Regression tests for 2PC commit-phase recovery: the inherent blocking
// case of two-phase commit is a participant that voted yes and then missed
// the commit fan-out past the driver's entire retry backoff. The driver
// retains no transaction state, so the participant's locks can only be
// released by replaying the coordinator group's decision log — which any
// client's SweepStranded does, in ordered commands. These tests manufacture
// the stranding deterministically (virtual time, seeded engine): partition
// the driving client from every replica of the non-coordinator participant
// in the instant after the commit decision is durably logged, exhaust the
// retry rounds, heal, sweep from the OTHER client, and require the locks
// gone and the committed values installed.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The two client hosts of every deployment here: client 0 drives the
// transaction, client 1 seeds, sweeps and verifies.
const (
	driverID  ids.ID = 200_000
	sweeperID ids.ID = 200_001
)

// firstTxid is client 0's first transaction: host<<32 | 1.
const firstTxid = uint64(driverID)<<32 | 1

// cut partitions (or heals) one client from every replica of one group.
func cut(d *shard.Deployment, client ids.ID, group int, partition bool) {
	for _, rep := range d.Groups[group].ReplicaIDs {
		if partition {
			d.Net.Partition(client, rep)
		} else {
			d.Net.Heal(client, rep)
		}
	}
}

// seedKeys writes "old" under one key per shard through client 1.
func seedKeys(t *testing.T, d *shard.Deployment, sa shardApp) (k0, k1 []byte) {
	t.Helper()
	k0, k1 = keyOnShard(t, 0, 2, 0), keyOnShard(t, 1, 2, 0)
	for _, k := range [][]byte{k0, k1} {
		if res, _, err := d.InvokeSync(1, sa.seed(k, "old"), 50*sim.Millisecond); err != nil || !sa.wrote(res) {
			t.Fatalf("seed write %q: res=%v err=%v", k, res, err)
		}
	}
	return k0, k1
}

// requireUnlocked: no replica of either group holds a lock or a staged
// transaction, and no client holds pending-request state.
func requireUnlocked(t *testing.T, d *shard.Deployment) {
	t.Helper()
	for gi, g := range d.Groups {
		for ri, a := range g.Apps {
			ls := a.(lockState)
			if ls.LockedKeys() != 0 || ls.StagedTxs() != 0 {
				t.Fatalf("group %d replica %d: locked=%d staged=%d, want none", gi, ri, ls.LockedKeys(), ls.StagedTxs())
			}
		}
	}
	for ci, c := range d.Clients {
		if n := c.Pending(); n != 0 {
			t.Fatalf("client %d holds %d pending requests, want 0", ci, n)
		}
	}
}

// readBoth reads both keys in one cross-shard read through client 1.
func readBoth(t *testing.T, d *shard.Deployment, sa shardApp, k0, k1 []byte) (string, string) {
	t.Helper()
	res, _, err := d.InvokeSync(1, sa.read(k0, k1), 50*sim.Millisecond)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return sa.readVals(t, res)
}

// awaitCommitDecision runs virtual time in sub-microsecond steps until client
// 0's first commit decision is logged on some coordinator replica. The
// client only drives the decide AFTER every participant voted yes, and hears
// of it only after f+1 coordinator replicas answered — one network
// round-trip away — so a partition made on return lands after the point of
// no return (the transaction IS committed) and before the driver or any
// other participant hears about it.
func awaitCommitDecision(t *testing.T, d *shard.Deployment) {
	t.Helper()
	decisionLogged := func() bool {
		for _, a := range d.Groups[0].Apps {
			if commit, ok := a.(lockState).Decision(firstTxid); ok && commit {
				return true
			}
		}
		return false
	}
	for i := 0; !decisionLogged(); i++ {
		if i > 500_000 {
			t.Fatal("commit decision never logged at the coordinator group")
		}
		d.Eng.RunFor(200 * sim.Nanosecond)
	}
}

// strandCommit manufactures the stranded commit: client 0's cross-shard
// write is committed at the coordinator (group 0) and reported committed to
// its caller, while every replica of group 1 sits on the prepared locks and
// no client holds any state for the transaction. The partition that caused
// it is healed before returning.
func strandCommit(t *testing.T, sa shardApp, seed int64) (d *shard.Deployment, k0, k1 []byte) {
	t.Helper()
	d = shard.New(shard.Options{
		Seed:       seed,
		Shards:     2,
		NumClients: 2,
		NewApp:     sa.newApp,
	})
	t.Cleanup(d.Stop)
	k0, k1 = seedKeys(t, d, sa)

	var (
		result []byte
		fired  bool
	)
	if _, err := d.Client(0).Invoke(sa.write(k0, k1, "new"), func(res []byte, _ sim.Duration) { result, fired = res, true }); err != nil {
		t.Fatalf("cross-shard write: %v", err)
	}
	awaitCommitDecision(t, d)
	cut(d, driverID, 1, true)

	// Exhaust the commit retry rounds (1+2+4+8+16+32 = 63 PrepareTimeouts
	// of backoff). The driver must still report the transaction committed —
	// the decision is durably logged — while group 1 sits on its prepared
	// locks.
	d.Eng.RunFor(80 * shard.PrepareTimeout)
	if !fired {
		t.Fatal("driver never resolved the transaction")
	}
	if len(result) == 0 || result[0] != app.StatusOK {
		t.Fatalf("driver result %v, want committed StatusOK", result)
	}
	for ri, a := range d.Groups[1].Apps {
		ls := a.(lockState)
		if ls.StagedTxs() == 0 || ls.LockedKeys() == 0 {
			t.Fatalf("group 1 replica %d: staged=%d locked=%d, want a stranded prepared transaction",
				ri, ls.StagedTxs(), ls.LockedKeys())
		}
	}
	cut(d, driverID, 1, false)
	return d, k0, k1
}

// requireReplayedCommit: exactly one stranded transaction was resolved, as
// a commit, by client 1; nothing is locked anywhere; both keys read "new".
func requireReplayedCommit(t *testing.T, d *shard.Deployment, sa shardApp, k0, k1 []byte) {
	t.Helper()
	total, committed, aborted := d.Client(1).StrandedResolved()
	if total != 1 || committed != 1 || aborted != 0 {
		t.Fatalf("recovery resolved (total=%d, committed=%d, aborted=%d), want exactly one replayed commit",
			total, committed, aborted)
	}
	requireUnlocked(t, d)
	// The replayed commit must install the transaction's writes: both keys
	// read the same, and the same as the coordinator-side key alone.
	v0, v1 := readBoth(t, d, sa, k0, k1)
	if v0 != v1 {
		t.Fatalf("recovered state torn: %q vs %q", v0, v1)
	}
	if o0, _ := readBoth(t, d, sa, k0, k0); o0 != v0 {
		t.Fatalf("inconsistent reads of %q: %q vs %q", k0, o0, v0)
	}
}

// strandOutcome fingerprints one stranded-commit run for the determinism
// check: the recovery counters plus the post-recovery replica snapshots of
// both groups.
type strandOutcome struct {
	resolved, committed, aborted uint64
	snap0, snap1                 []byte
}

// runStrandedCommit drives one full stranding-and-recovery scenario and
// returns its fingerprint. The sweeps come from client 1, which did not
// drive the transaction: the first lists it, the second lists it again and
// resolves — the coordinator's logged COMMIT replayed at group 1.
func runStrandedCommit(t *testing.T, sa shardApp, seed int64) strandOutcome {
	t.Helper()
	d, k0, k1 := strandCommit(t, sa, seed)
	d.Client(1).SweepStranded()
	d.Eng.RunFor(3 * shard.PrepareTimeout)
	d.Client(1).SweepStranded()
	d.Eng.RunFor(10 * shard.PrepareTimeout)
	requireReplayedCommit(t, d, sa, k0, k1)

	total, committed, aborted := d.Client(1).StrandedResolved()
	return strandOutcome{
		resolved: total, committed: committed, aborted: aborted,
		snap0: d.Groups[0].Apps[0].Snapshot(),
		snap1: d.Groups[1].Apps[0].Snapshot(),
	}
}

// TestCommitPhaseRecoveryReplaysDecision: the stranded participant's locks
// are released and its state committed by replaying the coordinator
// group's decision log — for every transactional app, across seeds.
func TestCommitPhaseRecoveryReplaysDecision(t *testing.T) {
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runStrandedCommit(t, sa, seed)
				})
			}
		})
	}
}

// TestCommitPhaseRecoveryDeterministic: the whole stranding-and-recovery
// scenario is a pure function of its seed — same counters, bit-identical
// final snapshots on both groups.
func TestCommitPhaseRecoveryDeterministic(t *testing.T) {
	sa := shardApps()[0] // rkv
	a := runStrandedCommit(t, sa, 3)
	b := runStrandedCommit(t, sa, 3)
	if a.resolved != b.resolved || a.committed != b.committed || a.aborted != b.aborted ||
		!bytes.Equal(a.snap0, b.snap0) || !bytes.Equal(a.snap1, b.snap1) {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestCommitPhaseRecoverySurvivesLostQuery: the sweeping client is cut off
// from the coordinator group exactly while it tries to resolve. The query
// is retransmitted with the backoff every other 2PC step has, so healing
// mid-backoff resolves the transaction; and when every round is lost the
// candidate goes back to the sweeps, so the next one picks it up again.
// (The unordered side protocol this replaced sent the query once and then
// skipped the transaction in every later sweep.)
func TestCommitPhaseRecoverySurvivesLostQuery(t *testing.T) {
	sa := shardApps()[0] // rkv
	for _, tc := range []struct {
		name string
		cut  sim.Duration // how long the partition outlasts the resolving sweep
	}{
		// Rounds go out at 0, 1, 3, 7, ... PrepareTimeouts after the sweep.
		{"retransmitted", 5 * shard.PrepareTimeout / 2}, // rounds at +0 and +1 lost, +3 lands
		{"exhausted", 70 * shard.PrepareTimeout},        // all six rounds (63) lost
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, k0, k1 := strandCommit(t, sa, 1)
			d.Client(1).SweepStranded()
			d.Eng.RunFor(3 * shard.PrepareTimeout)

			cut(d, sweeperID, 0, true)
			d.Client(1).SweepStranded() // group 1 lists it again: resolve, query lost
			d.Eng.RunFor(tc.cut)
			if total, _, _ := d.Client(1).StrandedResolved(); total != 0 {
				t.Fatalf("resolved %d transactions with the coordinator group unreachable", total)
			}
			cut(d, sweeperID, 0, false)

			d.Client(1).SweepStranded()
			d.Eng.RunFor(10 * shard.PrepareTimeout)
			requireReplayedCommit(t, d, sa, k0, k1)
		})
	}
}

// TestCommitPhaseRecoveryLostDecideAcks: the driver is cut from the
// coordinator group (group 0) the moment its commit decision is logged, so
// every acknowledgement of the decide is lost, and stays cut past every
// retry round. A driver that then fell back to abort would abort group 1
// alone while group 0 held the logged commit, which a later sweep installs:
// a torn write, reported aborted. Instead the driver waits for the
// coordinator group's answer. After the heal and two sweeps from client 1,
// both keys must read the same, nothing may stay locked, and the driver's
// outcome must be what was installed. With the abort fallback each app
// tears at two of these three seeds (rkv 2 and 3, kv 3 and 4, orderbook 2
// and 4); at the third, f+1 acknowledgements of the decide were already on
// their way to the driver when the cut landed.
func TestCommitPhaseRecoveryLostDecideAcks(t *testing.T) {
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			for _, seed := range []int64{2, 3, 4} {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					d := shard.New(shard.Options{Seed: seed, Shards: 2, NumClients: 2, NewApp: sa.newApp})
					defer d.Stop()
					k0, k1 := seedKeys(t, d, sa)
					old, _ := readBoth(t, d, sa, k0, k1)

					var result []byte
					if _, err := d.Client(0).Invoke(sa.write(k0, k1, "new"), func(res []byte, _ sim.Duration) { result = res }); err != nil {
						t.Fatalf("cross-shard write: %v", err)
					}
					awaitCommitDecision(t, d)
					cut(d, driverID, 0, true)
					// Past the decide's rounds (63 PrepareTimeouts of backoff)
					// and as many again of whatever follows them.
					d.Eng.RunFor(140 * shard.PrepareTimeout)
					cut(d, driverID, 0, false)

					d.Client(1).SweepStranded()
					d.Eng.RunFor(3 * shard.PrepareTimeout)
					d.Client(1).SweepStranded()
					d.Eng.RunFor(80 * shard.PrepareTimeout)

					if len(result) == 0 {
						t.Fatal("driver never resolved the transaction")
					}
					requireUnlocked(t, d)
					v0, v1 := readBoth(t, d, sa, k0, k1)
					if v0 != v1 {
						t.Fatalf("torn write: k0=%q k1=%q, driver reported %v", v0, v1, result)
					}
					if committed := result[0] == app.StatusOK; committed != (v0 != old) {
						t.Fatalf("driver reported %v, but the keys read %q (before the write: %q)", result, v0, old)
					}
				})
			}
		})
	}
}

// listLiar is an RKV replica that, once lying, answers OpTxnListStaged with
// one staged transaction more than it holds.
type listLiar struct {
	*app.RKV
	lying       bool
	txid, coord uint64
}

func (l *listLiar) Apply(req []byte) []byte {
	res := l.RKV.Apply(req)
	staged, ok := app.DecodeTxnListStaged(res)
	if !l.lying || !bytes.Equal(req, app.EncodeTxnListStaged(nil)) || !ok {
		return res
	}
	w := wire.NewWriter(64)
	w.U8(app.StatusOK)
	w.Uvarint(uint64(len(staged) + 1))
	for _, tx := range append(staged, app.StagedTxn{Txid: l.txid, Coord: l.coord}) {
		w.U64(tx.Txid)
		w.Uvarint(tx.Coord)
	}
	return w.Finish()
}

// TestCommitPhaseRecoveryLoneLiar: one replica inventing a stranded
// transaction never gets it queried, let alone aborted — its answer is one
// vote against the group's f+1 matching ones. The liar is the view-0 leader
// of group 1, whose answer usually reaches the client first.
func TestCommitPhaseRecoveryLoneLiar(t *testing.T) {
	const forged = uint64(0xDEAD)<<32 | 7
	d := shard.New(shard.Options{
		Seed:       1,
		Shards:     2,
		NumClients: 2,
		NewApp:     func(int) app.StateMachine { return &listLiar{RKV: app.NewRKV(), txid: forged} },
	})
	defer d.Stop()
	seedKeys(t, d, shardApps()[0])
	d.Groups[1].Apps[0].(*listLiar).lying = true

	for i := 0; i < 3; i++ {
		d.Client(1).SweepStranded()
		d.Eng.RunFor(3 * sim.Millisecond)
	}
	if total, _, _ := d.Client(1).StrandedResolved(); total != 0 {
		t.Fatalf("resolved %d transactions, want 0: nothing is stranded", total)
	}
	for ri, a := range d.Groups[0].Apps {
		if commit, ok := a.(lockState).Decision(forged); ok {
			t.Fatalf("coordinator replica %d logged decision commit=%v for a transaction one liar invented", ri, commit)
		}
	}
	requireUnlocked(t, d)
}

// TestCommitPhaseRecoveryInFlight: a transaction between its prepare and
// its commit is not stranded. The window is held open deterministically:
// the driver's host is busy when the votes arrive, and by the time it sends
// its decide it is cut off from the coordinator group, so the decide goes
// out again one PrepareTimeout later. One sweep inside the window must leave
// the transaction alone (it commits once the link heals); two consecutive
// sweeps inside it do resolve it — as an abort, by query-or-abort — and the
// driver's late decide then loses to the tombstone, so driver and
// participants agree.
func TestCommitPhaseRecoveryInFlight(t *testing.T) {
	sa := shardApps()[0] // rkv
	for _, tc := range []struct {
		name   string
		sweeps int
		status uint8
		value  string
	}{
		{"one-sweep", 1, app.StatusOK, "new"},
		{"two-sweeps", 2, app.StatusAborted, "old"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := shard.New(shard.Options{Seed: 1, Shards: 2, NumClients: 2, NewApp: sa.newApp})
			defer d.Stop()
			k0, k1 := seedKeys(t, d, sa)

			var result []byte
			if _, err := d.Client(0).Invoke(sa.write(k0, k1, "new"), func(res []byte, _ sim.Duration) { result = res }); err != nil {
				t.Fatalf("cross-shard write: %v", err)
			}
			// The prepares have left; the votes will queue behind 300 us of
			// host work, and the decide they trigger meets the partition.
			d.Net.Node(driverID).Proc().Charge(300 * sim.Microsecond)
			d.Eng.RunFor(150 * sim.Microsecond)
			for gi, g := range d.Groups {
				for ri, a := range g.Apps {
					if a.(lockState).StagedTxs() != 1 {
						t.Fatalf("group %d replica %d has not prepared yet: the schedule missed its window", gi, ri)
					}
				}
			}
			cut(d, driverID, 0, true)

			// The decide is repeated one PrepareTimeout (2 ms) after it
			// first went out, at about 2.3 ms. Everything below happens
			// before that.
			for i := 0; i < tc.sweeps; i++ {
				d.Client(1).SweepStranded()
				d.Eng.RunFor(500 * sim.Microsecond)
			}
			if result != nil {
				t.Fatalf("driver finished (%v) inside the held window", result)
			}
			resolved, _, aborted := d.Client(1).StrandedResolved()
			if want := uint64(2 * (tc.sweeps - 1)); resolved != want || aborted != want {
				t.Fatalf("%d sweeps resolved %d (aborted %d), want %d: one per participant group", tc.sweeps, resolved, aborted, want)
			}
			for ri, a := range d.Groups[0].Apps {
				if _, ok := a.(lockState).Decision(firstTxid); ok != (tc.sweeps > 1) {
					t.Fatalf("coordinator replica %d: decision logged = %v after %d sweep(s)", ri, ok, tc.sweeps)
				}
			}
			cut(d, driverID, 0, false)

			d.Eng.RunFor(10 * sim.Millisecond)
			if len(result) != 1 || result[0] != tc.status {
				t.Fatalf("driver outcome %v, want status %d", result, tc.status)
			}
			requireUnlocked(t, d)
			if v0, v1 := readBoth(t, d, sa, k0, k1); v0 != tc.value || v1 != tc.value {
				t.Fatalf("read (%q, %q), want both %q", v0, v1, tc.value)
			}
		})
	}
}
