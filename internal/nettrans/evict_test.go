package nettrans_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/nettrans"
)

// evictHarness is a two-process loopback pair where process B can be
// killed and reborn on a stable address, driving A's peer-health machine
// through its full cycle: healthy -> stalled/refused -> evicted
// (fast-drop) -> probed -> re-admitted.
type evictHarness struct {
	t   *testing.T
	h   *nettrans.Host
	a   *nettrans.Net
	idA ids.ID
	idB ids.ID

	mu    sync.Mutex
	bAddr string
	b     *nettrans.Net

	nodeA interface {
		Send(to ids.ID, payload []byte)
	}
	recv chan []byte
}

func newEvictHarness(t *testing.T) *evictHarness {
	e := &evictHarness{
		t:    t,
		h:    nettrans.NewHost(1),
		idA:  ids.ID(1),
		idB:  ids.ID(2),
		recv: make(chan []byte, 1024),
	}
	resolve := func(id ids.ID) (string, bool) {
		if id != e.idB {
			return "", false
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.bAddr, e.bAddr != ""
	}
	// Refused dials on loopback fail instantly, so eviction takes the
	// backoff sum of EvictAfterFails attempts (~0.13 s) and readmission at
	// most one ProbeInterval.
	a, err := nettrans.Listen(e.h, nettrans.Options{ListenAddr: "127.0.0.1:0", Resolve: resolve})
	if err != nil {
		t.Fatalf("listen A: %v", err)
	}
	e.a = a
	na, err := a.NewEndpoint(e.idA, "a")
	if err != nil {
		t.Fatalf("endpoint A: %v", err)
	}
	e.nodeA = na
	e.startB("127.0.0.1:0")
	e.h.Start()
	return e
}

// startB (re)creates process B; addr "127.0.0.1:0" allocates, anything
// else rebinds the prior port so A's peer table stays valid.
func (e *evictHarness) startB(addr string) {
	b, err := nettrans.Listen(e.h, nettrans.Options{
		ListenAddr: addr,
		Resolve:    func(ids.ID) (string, bool) { return "", false },
	})
	if err != nil {
		e.t.Fatalf("listen B: %v", err)
	}
	nb, err := b.NewEndpoint(e.idB, "b")
	if err != nil {
		e.t.Fatalf("endpoint B: %v", err)
	}
	nb.SetHandler(func(from ids.ID, payload []byte) {
		select {
		case e.recv <- append([]byte(nil), payload...):
		default:
		}
	})
	e.mu.Lock()
	e.b = b
	e.bAddr = b.Addr()
	e.mu.Unlock()
}

func (e *evictHarness) killB() {
	e.mu.Lock()
	b := e.b
	e.mu.Unlock()
	b.Close()
}

// awaitDelivery pings until a frame lands at B or the deadline passes.
func (e *evictHarness) awaitDelivery(tag string) {
	e.t.Helper()
	for len(e.recv) > 0 {
		<-e.recv
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		e.nodeA.Send(e.idB, []byte(fmt.Sprintf("%s-%d", tag, i)))
		select {
		case <-e.recv:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	e.t.Fatalf("%s: no delivery to B within 10s (peers=%v stats=%+v)",
		tag, e.a.Peers(), e.a.Stats())
}

// awaitEviction keeps traffic flowing at the dead peer until A evicts it.
func (e *evictHarness) awaitEviction(tag string) {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		e.nodeA.Send(e.idB, []byte("x"))
		if ps := e.a.Peers()[e.idB]; ps.Evicted {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.t.Fatalf("%s: peer never evicted (peers=%v stats=%+v)",
		tag, e.a.Peers(), e.a.Stats())
}

// TestPeerEvictionAndReadmission drives one full health cycle and checks
// every observable along the way: the eviction threshold fires, evicted
// traffic is fast-dropped (and counted), the backlog queued before the
// eviction is trimmed to one frame, and the probe re-admits the reborn peer.
func TestPeerEvictionAndReadmission(t *testing.T) {
	e := newEvictHarness(t)
	defer e.h.Stop()
	defer e.a.Close()
	defer e.killB()

	e.awaitDelivery("warmup")
	e.killB()
	e.awaitEviction("kill")

	// Fast-drop accounting: everything past the probe carrier is dropped.
	before := e.a.Stats()
	for i := 0; i < 50; i++ {
		e.nodeA.Send(e.idB, []byte("drop-me"))
	}
	if got := e.a.Stats().EvictDrops; got <= before.EvictDrops {
		t.Fatalf("EvictDrops flat at %d despite sends to an evicted peer", got)
	}
	if ps := e.a.Peers()[e.idB]; ps.Queued > 1 {
		t.Fatalf("evicted peer queued %d frames, want <=1 (probe carrier)", ps.Queued)
	}

	// Rebirth on the same address: the next probe must re-admit.
	e.mu.Lock()
	addr := e.bAddr
	e.mu.Unlock()
	e.startB(addr)
	e.awaitDelivery("rebirth")
	st := e.a.Stats()
	if st.Evictions < 1 || st.Readmits < 1 {
		t.Fatalf("want >=1 eviction and readmit, got %+v", st)
	}
	if ps := e.a.Peers()[e.idB]; ps.Evicted || ps.ConsecFails != 0 {
		t.Fatalf("peer not healthy after readmission: %+v", ps)
	}
}

// TestRepeatedKillRestartNoLeaks cycles process B through 10 kill/restart
// rounds and requires A's footprint to stay flat: one outbound link, at
// most one frame queued per eviction, and no goroutine growth (B's
// goroutines must be fully reaped by Close, A's writer is persistent).
func TestRepeatedKillRestartNoLeaks(t *testing.T) {
	e := newEvictHarness(t)
	defer e.h.Stop()
	defer e.a.Close()
	defer e.killB()

	// Warm one full cycle first so every lazily-created goroutine (link
	// writer, accept loops) exists before the baseline is taken.
	e.awaitDelivery("warmup")
	baseline := runtime.NumGoroutine()

	for cycle := 1; cycle <= 10; cycle++ {
		e.killB()
		e.awaitEviction(fmt.Sprintf("cycle-%d", cycle))
		if ps := e.a.Peers()[e.idB]; ps.Queued > 1 {
			t.Fatalf("cycle %d: evicted peer queued %d frames, want <=1", cycle, ps.Queued)
		}
		e.mu.Lock()
		addr := e.bAddr
		e.mu.Unlock()
		e.startB(addr)
		e.awaitDelivery(fmt.Sprintf("cycle-%d", cycle))
		if peers := e.a.Peers(); len(peers) != 1 {
			t.Fatalf("cycle %d: %d outbound links, want 1 (%v)", cycle, len(peers), peers)
		}
	}
	st := e.a.Stats()
	if st.Evictions < 10 || st.Readmits < 10 {
		t.Fatalf("want >=10 evictions+readmits over 10 cycles, got %+v", st)
	}

	// Let B's reader/writer goroutines from the final rebirth settle, then
	// compare. The slack absorbs runtime-internal goroutines (GC workers,
	// timer threads) that come and go.
	time.Sleep(200 * time.Millisecond)
	runtime.GC()
	if now := runtime.NumGoroutine(); now > baseline+5 {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines grew %d -> %d across 10 cycles:\n%s",
			baseline, now, buf[:n])
	}
}

// TestQueueFullBackpressureStat pins the ring-overflow accounting: with an
// unresolvable peer (writer parked in dial, ~0.25 s from its eviction
// threshold) a burst larger than QueueSlots must tail-drop and be counted
// as QueueFull backpressure, while the ring itself stays at its bound.
func TestQueueFullBackpressureStat(t *testing.T) {
	h := nettrans.NewHost(3)
	a, err := nettrans.Listen(h, nettrans.Options{
		ListenAddr: "127.0.0.1:0",
		Resolve:    func(ids.ID) (string, bool) { return "", false },
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer a.Close()
	na, err := a.NewEndpoint(ids.ID(1), "a")
	if err != nil {
		t.Fatalf("endpoint: %v", err)
	}
	h.Start()
	defer h.Stop()

	const burst = 4 * nettrans.QueueSlots
	for i := 0; i < burst; i++ {
		na.Send(ids.ID(2), []byte("burst"))
	}
	// enqueue is synchronous, so the counters are already settled: at most
	// QueueSlots frames fit (plus one the writer may hold), the rest must
	// have overwritten the oldest slot and been counted.
	st := a.Stats()
	if st.QueueFull < burst-nettrans.QueueSlots-1 {
		t.Fatalf("QueueFull = %d after a %d-frame burst into %d slots", st.QueueFull, burst, nettrans.QueueSlots)
	}
	if st.Dropped < st.QueueFull {
		t.Fatalf("Dropped (%d) must include QueueFull (%d)", st.Dropped, st.QueueFull)
	}
	if ps := a.Peers()[ids.ID(2)]; ps.Queued > nettrans.QueueSlots {
		t.Fatalf("ring exceeded its bound: %+v", ps)
	}
}
