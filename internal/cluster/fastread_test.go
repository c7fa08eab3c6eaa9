package cluster_test

import (
	"bytes"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/sim"
)

// syncRead drives one fast read to completion.
func syncRead(t *testing.T, u *cluster.UBFT, payload []byte) []byte {
	t.Helper()
	var (
		result []byte
		fired  bool
	)
	u.Client(0).Call(0, payload, consensus.Mode{Read: true}, func(res []byte, _ sim.Duration) { result, fired = res, true })
	if err := cluster.SyncWait(u.Eng, 100*sim.Millisecond, func() bool { return fired }); err != nil {
		t.Fatalf("read did not complete: %v", err)
	}
	return result
}

// TestClientInvokeRead: the consensus client's unordered read returns the
// same bytes the ordered path produces, without consuming a consensus slot.
func TestClientInvokeRead(t *testing.T) {
	u := cluster.NewUBFT(cluster.Options{Seed: 1, NewApp: func() app.StateMachine { return app.NewKV(0) }})
	defer u.Stop()
	key, val := []byte("k"), []byte("v")
	if res, _, _ := u.InvokeSync(0, app.EncodeKVSet(key, val), 50*sim.Millisecond); len(res) != 1 || res[0] != app.KVStored {
		t.Fatalf("seed write: %v", res)
	}
	decidedBefore := u.Replicas[0].DecidedCount()

	want, _, _ := u.InvokeSync(0, app.EncodeKVGet(key), 50*sim.Millisecond)
	got := syncRead(t, u, app.EncodeKVGet(key))
	if !bytes.Equal(got, want) {
		t.Fatalf("fast read %x != ordered %x", got, want)
	}
	if u.Client(0).FastReads != 1 || u.Client(0).ReadFallbacks != 0 {
		t.Fatalf("read stats: fast=%d fallbacks=%d", u.Client(0).FastReads, u.Client(0).ReadFallbacks)
	}
	// The ordered comparison read consumed one slot; the fast read none.
	if decided := u.Replicas[0].DecidedCount(); decided != decidedBefore+1 {
		t.Fatalf("decided %d slots, want %d (fast read must not consume slots)", decided, decidedBefore+1)
	}
	if u.Client(0).PendingCount() != 0 {
		t.Fatalf("%d pending after completion", u.Client(0).PendingCount())
	}
}

// TestClientInvokeReadRefusalFallsBack: an application without the
// ReadExecutor capability (Flip) refuses unordered reads deterministically
// on every replica; f+1 refusals fall back to the ordered path immediately
// and the caller still gets the correct result.
func TestClientInvokeReadRefusalFallsBack(t *testing.T) {
	u := cluster.NewUBFT(cluster.Options{Seed: 1})
	defer u.Stop()
	got := syncRead(t, u, []byte("ab"))
	if string(got) != "ba" {
		t.Fatalf("fallback read = %q, want %q", got, "ba")
	}
	if u.Client(0).FastReads != 0 || u.Client(0).ReadFallbacks != 1 {
		t.Fatalf("read stats: fast=%d fallbacks=%d, want 0/1", u.Client(0).FastReads, u.Client(0).ReadFallbacks)
	}
	if u.Client(0).PendingCount() != 0 {
		t.Fatalf("%d pending after fallback completion", u.Client(0).PendingCount())
	}
}
