package shard_test

// Refactor safety net for the deployment assembler, shard side: per-seed
// digests captured at the commit BEFORE shard.Build became "every node of
// the S-group layout" over cluster's assembly core (see
// internal/cluster/golden_test.go for the single-group half).
//
// Both digests fold every op's virtual latency in and both deployments run
// with FastReads on, so they were captured again at PR 13 (optimistic f+1
// read quorum: a fast read asks f+1 replicas first, which shortens it).
// With the latency left out of the fold the parent's and PR 13's digests
// are equal (2f047655b9412ef6 and 918d831a1e65b1bf): results and final
// replica states did not move. The single-group goldens issue no fast read
// and were not touched.
//
// Captured a third time at PR 21 (ack and retransmit timing: lazy cumulative
// acks shorten every op; see internal/cluster/golden_test.go). With the
// latency left out the Build digest is still 2f047655b9412ef6; the restart
// digest moves without it too (918d831a1e65b1bf -> 56bb29fc84104b66) because
// retransmission towards the killed replica backs off and probes.
//
// The restart digest was captured a fourth time at PR 22 (certificate timing;
// see internal/cluster/golden_test.go). It moves with the latency left out
// too (56bb29fc84104b66 -> 72a48a902956cff5): still 86 ops until the joiner is
// back, other decided counts at the end. The Build digest did not move:
// neither group reaches slot 256 in 200 ops.
//
// Both were captured again for certificate timing (see
// internal/cluster/golden_test.go): CTBcast summary certificates form sooner,
// and with them every op's latency. Build e8336c6e4b229c93 ->
// 14a1d70a3ab877f6: with the latency left out it is still 2f047655b9412ef6.
// Restart 1970deb7681e5e21 -> 3aa53b3bb7e44611: still 86 ops until the joiner
// is back, which ends with 25 decided slots where it had 24.
//
// Both were captured again for read core timing: a replica executes its fast
// reads on a core of their own (consensus.Replica's readProc), so ordered
// operations no longer queue behind reads, and every op's latency moves.
// Build 14a1d70a3ab877f6 -> 5972dc587d01e4c3, restart 3aa53b3bb7e44611 ->
// ce0cb7757b47cacf. With the latency left out neither moved: Build
// 2f047655b9412ef6 and restart 56bb29fc84104b66 before and after.
//
// Both were captured again because a commit decision installs the
// coordinator's fragment: a committed cross-shard MSET no longer sends the
// coordinator group a separate commit, so that group decides one slot fewer
// per transaction and every later op's latency moves. Build 5972dc587d01e4c3
// -> e67e30eb5c73e309, restart ce0cb7757b47cacf -> 7b0b3c9f70fb0e7e. The
// decided counts are folded in, so both move with the latency left out too.
//
// Both were captured again because a replica takes a fast read the instant it
// arrives and the read core or crypto pool that executes it posts its reply
// (consensus.readLanes): neither waits behind the main process any more, so
// every fast read's latency moves, and with it every later op's. Build
// e67e30eb5c73e309 -> 07ce70bc8472e3a4, restart 7b0b3c9f70fb0e7e ->
// 8e493d3c1ceff6af. With the latency left out neither moved: Build
// fdfc125aab250ce5 and restart 555b2b6cce9fce54 before and after.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/sim"
)

// goldenRun records every op's result and virtual latency.
type goldenRun struct {
	t   *testing.T
	d   *shard.Deployment
	buf []byte
	n   int
	// cross counts ops whose keys span shards (the stream must hold some).
	cross int
}

// op issues one request of a fixed mixed stream over 16 keys: single-key
// SETs and GETs plus two-key MSETs (2PC when the pair spans shards) and
// three-key MGETs (scatter reads).
func (g *goldenRun) op() {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k-%02d", i%16)) }
	val := []byte(fmt.Sprintf("v-%03d", g.n))
	var req []byte
	switch i := g.n; i % 5 {
	case 0:
		req = app.EncodeKVSet(key(i), val)
	case 1, 4:
		req = app.EncodeKVGet(key(i - 1))
	case 2:
		req = app.EncodeKVMSet(app.Pair{Key: key(i), Val: val}, app.Pair{Key: key(i + 7), Val: val})
	case 3:
		req = app.EncodeKVMGet(key(i), key(i+6), key(i+11))
	}
	if _, err := shard.Route(g.d.Groups[0].Apps[0], req, len(g.d.Groups)); err == shard.ErrCrossShard {
		g.cross++
	}
	res, lat, err := g.d.InvokeSync(0, req, 200*sim.Millisecond)
	if err != nil {
		g.t.Fatalf("op %d: %v", g.n, err)
	}
	g.buf = binary.LittleEndian.AppendUint64(g.buf, uint64(lat))
	g.buf = append(g.buf, res...)
	g.n++
}

// digest folds the op log plus every replica's final state.
func (g *goldenRun) digest() string {
	buf := g.buf
	for _, grp := range g.d.Groups {
		for i, a := range grp.Apps {
			snap := a.Snapshot()
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(snap)))
			buf = append(buf, snap...)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(grp.Replicas[i].DecidedCount()))
			buf = binary.LittleEndian.AppendUint64(buf, grp.Replicas[i].Rejoins)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestGoldenBuildSeed7 pins a 2-shard KV deployment with fast reads: 200
// mixed ops of seed 7, cross-shard ones included.
func TestGoldenBuildSeed7(t *testing.T) {
	d, err := shard.Build(shard.Options{Seed: 7, Shards: 2, FastReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	g := &goldenRun{t: t, d: d}
	for g.n < 200 {
		g.op()
	}
	if g.cross < 20 {
		t.Fatalf("only %d of %d ops crossed shards", g.cross, g.n)
	}
	const want = "07ce70bc8472e3a4"
	if got := g.digest(); got != want {
		t.Fatalf("seed-7 shard Build digest = %s, want %s (see the top of the file)", got, want)
	}
}

// TestGoldenRestartSeed7 pins one KillReplica -> RestartReplica cycle on a
// follower of shard 1: the reborn replica must land on its group's region
// span with nonce 1 for the rejoin to replay bit for bit.
func TestGoldenRestartSeed7(t *testing.T) {
	d, err := shard.Build(shard.Options{
		Seed: 7, Shards: 2, FastReads: true,
		Group: cluster.Options{
			Window:            8,
			Tail:              8,
			ViewChangeTimeout: 2 * sim.Millisecond,
			SlowPathDelay:     30 * sim.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	g := &goldenRun{t: t, d: d}
	const vs, vi = 1, 2
	for g.n < 10 {
		g.op()
	}
	if err := d.KillReplica(vs, vi); err != nil {
		t.Fatal(err)
	}
	for g.n < 70 {
		g.op()
	}
	if err := d.RestartReplica(vs, vi); err != nil {
		t.Fatal(err)
	}
	for d.Groups[vs].Replicas[vi].Recovering() && g.n < 600 {
		g.op()
	}
	if r := d.Groups[vs].Replicas[vi]; r.Recovering() || r.Rejoins != 1 {
		t.Fatalf("rejoin incomplete after %d ops: recovering=%v rejoins=%d", g.n, r.Recovering(), r.Rejoins)
	}
	const want = "8e493d3c1ceff6af"
	if got := g.digest(); got != want {
		t.Fatalf("seed-7 shard restart digest = %s, want %s (see the top of the file)", got, want)
	}
}
