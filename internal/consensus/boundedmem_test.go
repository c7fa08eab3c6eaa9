package consensus_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/sim"
)

// Bounded leader memory is uBFT's headline claim: every per-request and
// per-client record must be pruned back at stable checkpoints. Before the
// fix, the proposal dedup stubs grew by one entry per unique request forever.

// TestLeaderMemoryBounded drives traffic across >= 4 checkpoint intervals
// and asserts the leader's request-tracking maps stay bounded by the
// window, instead of growing linearly with total requests.
func TestLeaderMemoryBounded(t *testing.T) {
	const window = 8
	const intervals = 5
	const total = window*intervals + window/2 // 44 requests, 5 checkpoints

	u := cluster.NewUBFT(cluster.Options{
		Seed:   1,
		Window: window,
		Tail:   window,
		NewApp: func() app.StateMachine { return app.NewKV(0) },
	})
	defer u.Stop()

	for i := 0; i < total; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		res, _, err := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 50*sim.Millisecond)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res == nil || res[0] != app.KVStored {
			t.Fatalf("request %d: unexpected result %v", i, res)
		}
	}
	u.Eng.RunFor(10 * sim.Millisecond) // let the last checkpoint settle

	// Every map that gains an entry per unique request must have been
	// pruned back to at most the open window (plus the in-flight margin of
	// one interval).
	bound := 2 * window
	for i, r := range u.Replicas {
		if r.Checkpoint().Seq < (intervals-1)*window {
			t.Fatalf("replica %d checkpoint seq = %d: window never advanced", i, r.Checkpoint().Seq)
		}
		// Requests covers the client copies, the echo sets and the
		// proposal dedup stubs: one record holds all three.
		fp := r.Footprint()
		if fp.Requests > bound {
			t.Errorf("replica %d: request table holds %d records after %d requests (bound %d): %+v", i, fp.Requests, total, bound, fp)
		}
		if fp.Clients > bound {
			t.Errorf("replica %d: client table holds %d records (bound %d)", i, fp.Clients, bound)
		}
		if fp.Slots > bound {
			t.Errorf("replica %d: slot table holds %d records (bound %d)", i, fp.Slots, bound)
		}
		// The stable checkpoint, the two below it (verified-certificate
		// cache) and the one being certified.
		if fp.Checkpoints > 4 {
			t.Errorf("replica %d: %d checkpoint records after %d checkpoints", i, fp.Checkpoints, intervals)
		}
		// The checkpoint prune must not break decided accounting: every
		// request decided so far is still counted (satellite: DecidedCount
		// undercounted once pruneBelow deleted applied entries).
		if got := r.DecidedCount(); got < total {
			t.Errorf("replica %d: DecidedCount=%d < %d decided requests (pruned slots dropped from the count)", i, got, total)
		}
	}
}

// TestClientExecStateAged: the per-client table (exactly-once record plus
// highest proposed number) must not hold one entry per client ever seen. Clients churn in waves — each wave stops sending and a new
// one starts — and after several checkpoint intervals the maps must only
// retain recently active clients, while still serving every live request
// exactly once.
func TestClientExecStateAged(t *testing.T) {
	const (
		window = 8
		waves  = 4
		perWav = 6          // clients per wave
		reqs   = 3 * window // requests per wave: 3 checkpoint intervals
	)
	u := cluster.NewUBFT(cluster.Options{
		Seed:       3,
		Window:     window,
		Tail:       window,
		NumClients: waves * perWav,
		NewApp:     func() app.StateMachine { return app.NewKV(0) },
	})
	defer u.Stop()

	req := 0
	for wave := 0; wave < waves; wave++ {
		for i := 0; i < reqs; i++ {
			ci := wave*perWav + i%perWav
			key := []byte(fmt.Sprintf("w%d-%04d", wave, req))
			req++
			res, _, err := u.InvokeSync(ci, app.EncodeKVSet(key, []byte("v")), 50*sim.Millisecond)
			if err != nil || res == nil || res[0] != app.KVStored {
				t.Fatalf("wave %d request %d: res=%v err=%v", wave, i, res, err)
			}
		}
	}
	u.Eng.RunFor(10 * sim.Millisecond) // let the last checkpoint settle

	// Only the last wave (plus at most one aging window of grace) may
	// still be tracked; without aging the maps would hold all
	// waves*perWav clients.
	total := waves * perWav
	bound := 2 * perWav
	for i, r := range u.Replicas {
		fp := r.Footprint()
		if fp.Clients > bound {
			t.Errorf("replica %d: client table holds %d clients after churn of %d (bound %d)", i, fp.Clients, total, bound)
		}
		if fp.Deferred != 0 {
			t.Errorf("replica %d: %d deferred responses with no wait-queue traffic", i, fp.Deferred)
		}
	}
}

// TestParkedClientOutlivesIdleWindow: a client whose write parked behind a
// transaction lock is the one client guaranteed to be owed an answer, so the
// client-table aging must not drop it. A prepare locks a key and stays
// unresolved while another client's write to that key parks and traffic on
// other keys drives the stable checkpoint more than a window past the parked
// slot; the parked client's record and deferred target survive, and the
// commit answers it with the parked marker and empties the deferred table.
func TestParkedClientOutlivesIdleWindow(t *testing.T) {
	const window = 8
	u := cluster.NewUBFT(cluster.Options{
		Seed:       4,
		Window:     window,
		Tail:       window,
		NumClients: 3,
		NewApp:     func() app.StateMachine { return app.NewRKV() },
	})
	defer u.Stop()
	const prep, parker, other = 0, 1, 2
	key := []byte("locked")
	res, _, err := u.InvokeSync(prep, app.EncodeTxnPrepare(nil, 1, 0, app.EncodeRMSet(app.Pair{Key: key, Val: []byte("t")})), 50*sim.Millisecond)
	if err != nil || len(res) != 1 || res[0] != app.StatusOK {
		t.Fatalf("prepare: res=%v err=%v", res, err)
	}
	var parked *consensus.Outcome
	u.Clients[parker].CallAt(0, app.EncodeRSet(key, []byte("w")), consensus.Mode{}, func(o consensus.Outcome) { parked = &o })
	u.Eng.RunFor(sim.Millisecond)
	_, parkedAt, _, _ := u.Replicas[0].Progress()
	if parked != nil {
		t.Fatalf("the write to a locked key was answered: %+v", *parked)
	}
	for i := 0; ; i++ {
		_, _, chkpt, _ := u.Replicas[0].Progress()
		if chkpt > parkedAt+2*window {
			break
		}
		k := []byte(fmt.Sprintf("k%03d", i))
		if res, _, err := u.InvokeSync(other, app.EncodeRSet(k, []byte("v")), 50*sim.Millisecond); err != nil || len(res) != 1 || res[0] != app.ROK {
			t.Fatalf("write %d: res=%v err=%v", i, res, err)
		}
	}
	u.Eng.RunFor(10 * sim.Millisecond) // let every replica's checkpoint settle
	for i, r := range u.Replicas {
		// The preparing client idled past the window and is gone; the parked
		// one stays with the active one.
		if fp := r.Footprint(); fp.Deferred != 1 || fp.Clients != 2 {
			t.Errorf("replica %d before the commit: %d deferred targets and %d client records, want 1 and 2", i, fp.Deferred, fp.Clients)
		}
	}
	if parked != nil {
		t.Fatalf("the parked write was answered before the commit: %+v", *parked)
	}
	if res, _, err := u.InvokeSync(prep, app.EncodeTxnCommit(nil, 1), 50*sim.Millisecond); err != nil || len(res) != 1 || res[0] != app.StatusOK {
		t.Fatalf("commit: res=%v err=%v", res, err)
	}
	u.Eng.RunFor(sim.Millisecond)
	switch {
	case parked == nil:
		t.Fatal("the parked write was never answered")
	case !parked.Crossed || len(parked.Result) != 1 || parked.Result[0] != app.ROK:
		t.Fatalf("parked write answered %+v, want ROK with the parked marker", *parked)
	}
	for i, r := range u.Replicas {
		if fp := r.Footprint(); fp.Deferred != 0 {
			t.Errorf("replica %d: %d deferred targets after the release", i, fp.Deferred)
		}
	}
}

// TestVersionGCBounded: the MVCC version chains are pruned back by the
// checkpoint-ratcheted horizon. Overwriting the same few keys forever
// grows the value history linearly; the retained version count must stay
// flat across checkpoint intervals, and the horizon must advance (a
// replica that never ratchets would pass a one-shot size check).
func TestVersionGCBounded(t *testing.T) {
	const (
		window    = 8
		intervals = 4
		hotKeys   = 3
	)
	u := cluster.NewUBFT(cluster.Options{
		Seed:   9,
		Window: window,
		Tail:   window,
		NewApp: func() app.StateMachine { return app.NewKV(0) },
	})
	defer u.Stop()

	sizeAfter := make([][]int, 0, intervals)
	req := 0
	for interval := 0; interval < intervals; interval++ {
		for i := 0; i < window; i++ {
			key := []byte(fmt.Sprintf("hot-%d", req%hotKeys))
			val := []byte(fmt.Sprintf("v%04d", req))
			req++
			if res, _, err := u.InvokeSync(0, app.EncodeKVSet(key, val), 50*sim.Millisecond); err != nil || res == nil || res[0] != app.KVStored {
				t.Fatalf("request %d: res=%v err=%v", req, res, err)
			}
		}
		u.Eng.RunFor(5 * sim.Millisecond)
		counts := make([]int, len(u.Apps))
		for j, a := range u.Apps {
			counts[j] = a.(*app.KV).VersionCount()
		}
		sizeAfter = append(sizeAfter, counts)
	}

	for j, a := range u.Apps {
		kv := a.(*app.KV)
		if kv.VersionHorizon() < uint64((intervals-2)*window) {
			t.Errorf("replica %d: version horizon %d never ratcheted", j, kv.VersionHorizon())
		}
		last := sizeAfter[intervals-1][j]
		if bound := sizeAfter[0][j] + window; last > bound {
			t.Errorf("replica %d: version count grows across intervals: %v", j, sizeAfter)
		}
		if last == 0 {
			t.Errorf("replica %d: no versions retained at all", j)
		}
	}
}

// TestLeaderMapsFlatAcrossIntervals tightens the bound: the map sizes at
// the end of interval k must not grow with k (flat, not linear).
func TestLeaderMapsFlatAcrossIntervals(t *testing.T) {
	const window = 8
	u := cluster.NewUBFT(cluster.Options{
		Seed:   7,
		Window: window,
		Tail:   window,
		NewApp: func() app.StateMachine { return app.NewKV(0) },
	})
	defer u.Stop()

	sizeAfter := make([]int, 0, 4)
	req := 0
	for interval := 0; interval < 4; interval++ {
		for i := 0; i < window; i++ {
			key := []byte(fmt.Sprintf("k-%d-%04d", interval, req))
			req++
			if res, _, err := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 50*sim.Millisecond); err != nil || res == nil {
				t.Fatalf("request %d: res=%v err=%v", req, res, err)
			}
		}
		u.Eng.RunFor(5 * sim.Millisecond)
		fp := u.Replicas[0].Footprint()
		sizeAfter = append(sizeAfter, fp.Requests+fp.Clients)
	}
	for k := 1; k < len(sizeAfter); k++ {
		if sizeAfter[k] > sizeAfter[0]+window {
			t.Fatalf("leader map cardinality grows across checkpoint intervals: %v", sizeAfter)
		}
	}
}

// TestViewChangeRecordsPruned: the table keyed by view (per view the
// CERTIFY_VC shares a leader-elect collects, the certificates it holds until
// its seal lands, the NEW_VIEW-sent mark) keeps nothing below the replica's
// current view, however many view changes it lived through. Each round hides the
// client from the leader of the view the quorum is in, so the followers
// hold a request their leader never proposes and rotate it out; every
// replica gets elected several times.
func TestViewChangeRecordsPruned(t *testing.T) {
	const rounds = 9
	u := cluster.NewUBFT(cluster.Options{
		Seed:              1,
		ViewChangeTimeout: 300 * sim.Microsecond,
		SlowPathDelay:     50 * sim.Microsecond,
		NewApp:            func() app.StateMachine { return app.NewKV(0) },
	})
	defer u.Stop()

	recorded := 0
	for round := 0; round < rounds; round++ {
		views := make([]int, len(u.Replicas))
		for i, r := range u.Replicas {
			views[i] = int(r.View())
		}
		slices.Sort(views)
		leader := u.ReplicaIDs[views[len(views)/2]%len(views)] // of the f+1'th highest view
		u.Net.Partition(leader, u.ClientIDs[0])
		key := []byte(fmt.Sprintf("key-%02d", round))
		if _, _, err := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 100*sim.Millisecond); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		u.Net.HealAll()
		u.Eng.RunFor(5 * sim.Millisecond)
		for i, r := range u.Replicas {
			n, lowest := r.ViewRecords()
			recorded += n
			if n > 0 && lowest < r.View() {
				t.Fatalf("round %d: replica %d in view %d keeps a view-change record of view %d", round, i, r.View(), lowest)
			}
		}
	}
	for i, r := range u.Replicas {
		if r.View() < 8 {
			t.Errorf("replica %d reached view %d only: the schedule did not drive 8 view changes", i, r.View())
		}
	}
	if recorded == 0 {
		t.Error("no view-change record was ever seen: the check is vacuous")
	}
}

// TestRegistersCommittedOnlyBySlowPath: the disaggregated memory the paper
// budgets is written only on CTBcast's slow path (§6.1), so a memory node
// backs a writer's registers only from that writer's first WRITE. After two
// checkpoint intervals a fault-free fast-path cluster has committed no
// register bytes on any memory node, and a slow-path-only cluster has
// committed every writer's whole reservation, no more.
func TestRegistersCommittedOnlyBySlowPath(t *testing.T) {
	const window = 8
	for _, c := range []struct {
		name string
		slow bool
	}{{"fast path", false}, {"slow path only", true}} {
		t.Run(c.name, func(t *testing.T) {
			opts := cluster.Options{Seed: 1, Window: window, Tail: window}
			if c.slow {
				opts.DisableFastPath, opts.CTBMode = true, ctbcast.SlowOnly
			}
			u := cluster.NewUBFT(opts)
			defer u.Stop()
			for i := 0; i < 2*window+1; i++ {
				if _, _, err := u.InvokeSync(0, []byte{byte(i)}, 50*sim.Millisecond); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			u.Eng.RunFor(10 * sim.Millisecond) // let the second checkpoint settle
			for i, r := range u.Replicas {
				if r.Checkpoint().Seq < 2*window {
					t.Fatalf("replica %d: stable checkpoint %d, want two intervals (%d)", i, r.Checkpoint().Seq, 2*window)
				}
			}
			for j, mn := range u.MemNodes {
				for _, id := range u.ReplicaIDs {
					want := 0
					if c.slow {
						want = mn.BytesOwnedBy(id)
					}
					if got := mn.CommittedBytes(id); got != want || mn.BytesOwnedBy(id) == 0 {
						t.Errorf("memory node %d: %v committed %d of %d reserved bytes, want %d",
							j, id, got, mn.BytesOwnedBy(id), want)
					}
				}
			}
		})
	}
}
