// Transport conformance suite: one table-driven contract test run against
// both fabric backends. The contract (package doc): FIFO-with-gaps per
// directed link, authenticated sender identity, no duplicates, bounded
// (tail-drop) queueing under overload, delivery resumes after a partition
// heals — simnet by construction, nettrans by reconnect with exponential
// backoff — and a crashed endpoint neither receives nor sends.
package transport_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/byz"
	"repro/internal/ids"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// recorder collects deliveries on one endpoint, concurrency-safe (nettrans
// delivers on a host-loop goroutine).
type recorder struct {
	mu      sync.Mutex
	got     map[ids.ID][]uint64 // per sender, message indices in arrival order
	seen    int
	largest int // longest payload delivered
}

func newRecorder() *recorder { return &recorder{got: make(map[ids.ID][]uint64)} }

func (r *recorder) handler(from ids.ID, payload []byte) {
	if len(payload) < 16 {
		return
	}
	// payload: u64 sender echo | u64 index | padding
	echo := ids.ID(binary.LittleEndian.Uint64(payload[:8]))
	idx := binary.LittleEndian.Uint64(payload[8:16])
	r.mu.Lock()
	defer r.mu.Unlock()
	if echo != from {
		// Identity violation recorded as a poisoned index.
		idx = ^uint64(0)
	}
	r.got[from] = append(r.got[from], idx)
	r.seen++
	r.largest = max(r.largest, len(payload))
}

func (r *recorder) largestPayload() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.largest
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

func (r *recorder) from(id ids.ID) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.got[id]...)
}

func msg(from ids.ID, idx uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[:8], uint64(from))
	binary.LittleEndian.PutUint64(b[8:], idx)
	return b
}

// world abstracts one assembled fabric of n endpoints (ids 0..n-1) so the
// same contract assertions drive both backends.
type world interface {
	endpoint(i int) transport.Endpoint
	// send transmits from endpoint i to endpoint j (on whatever goroutine
	// the backend requires).
	send(i, j int, payload []byte)
	// settle drives the world until cond holds or the backend gives up;
	// reports whether cond held.
	settle(cond func() bool) bool
	// partition cuts both directions between i and j; heal restores them.
	partition(i, j int)
	heal(i, j int)
	// overloadCapacity returns the per-link queue bound, or 0 when the
	// backend queues unboundedly (simnet, whose partitions drop instead).
	overloadCapacity() int
	// crash crashes endpoint i's process on the goroutine its handlers run
	// on, and returns once it has.
	crash(i int)
	// linger lets every frame still in flight land.
	linger()
	close()
}

// --- simnet world -----------------------------------------------------

type simWorld struct {
	eng  *simnet.Network
	e    *sim.Engine
	eps  []transport.Endpoint
	recs []*recorder
}

func newSimWorld(t *testing.T, n int) *simWorld {
	return newSimWorldRuled(t, n, nil)
}

// newSimWorldRuled builds the simnet world with configure applied to its
// network before any endpoint exists: the simnet-ruled conformance entry
// proves the fate seam (outbound rewrites and the network's rule) is
// contract-transparent for honest traffic.
func newSimWorldRuled(t *testing.T, n int, configure func(*simnet.Network)) *simWorld {
	e := sim.NewEngine(7)
	net := simnet.New(e, simnet.RDMAOptions())
	w := &simWorld{eng: net, e: e}
	if configure != nil {
		configure(net)
	}
	fab := simnet.AsFabric(net)
	for i := 0; i < n; i++ {
		ep, err := fab.NewEndpoint(ids.ID(i), fmt.Sprintf("n%d", i))
		if err != nil {
			t.Fatalf("NewEndpoint: %v", err)
		}
		rec := newRecorder()
		ep.SetHandler(rec.handler)
		w.eps = append(w.eps, ep)
		w.recs = append(w.recs, rec)
	}
	return w
}

func (w *simWorld) endpoint(i int) transport.Endpoint { return w.eps[i] }
func (w *simWorld) send(i, j int, payload []byte)     { w.eps[i].Send(ids.ID(j), payload) }
func (w *simWorld) settle(cond func() bool) bool {
	for steps := 0; steps < 1_000_000; steps++ {
		if cond() {
			return true
		}
		if !w.e.Step() {
			return cond()
		}
	}
	return cond()
}
func (w *simWorld) partition(i, j int)    { w.eng.Partition(ids.ID(i), ids.ID(j)) }
func (w *simWorld) heal(i, j int)         { w.eng.Heal(ids.ID(i), ids.ID(j)) }
func (w *simWorld) overloadCapacity() int { return 0 }
func (w *simWorld) crash(i int)           { w.eps[i].Proc().Crash() }
func (w *simWorld) linger() {
	for w.e.Step() {
	}
}
func (w *simWorld) close() {}

// --- nettrans world ---------------------------------------------------

type netWorld struct {
	hosts []*nettrans.Host
	nets  []*nettrans.Net
	eps   []transport.Endpoint
	recs  []*recorder
	table *nettrans.AddrTable

	mu      sync.Mutex
	blocked map[[2]int]bool
}

func newNetWorld(t *testing.T, n int) *netWorld {
	w := &netWorld{
		table:   nettrans.NewAddrTable(nil),
		blocked: make(map[[2]int]bool),
	}
	for i := 0; i < n; i++ {
		i := i
		h := nettrans.NewHost(int64(i))
		resolve := func(id ids.ID) (string, bool) {
			w.mu.Lock()
			cut := w.blocked[pairOf(i, int(id))]
			w.mu.Unlock()
			if cut {
				return "", false
			}
			return w.table.Resolve(id)
		}
		nt, err := nettrans.Listen(h, nettrans.Options{ListenAddr: "127.0.0.1:0", Resolve: resolve})
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		ep, err := nt.NewEndpoint(ids.ID(i), fmt.Sprintf("n%d", i))
		if err != nil {
			t.Fatalf("NewEndpoint: %v", err)
		}
		rec := newRecorder()
		ep.SetHandler(rec.handler)
		w.table.Set(ids.ID(i), nt.Addr())
		w.hosts = append(w.hosts, h)
		w.nets = append(w.nets, nt)
		w.eps = append(w.eps, ep)
		w.recs = append(w.recs, rec)
	}
	for _, h := range w.hosts {
		h.Start()
	}
	return w
}

func pairOf(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (w *netWorld) endpoint(i int) transport.Endpoint { return w.eps[i] }
func (w *netWorld) send(i, j int, payload []byte)     { w.eps[i].Send(ids.ID(j), payload) }
func (w *netWorld) settle(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}
func (w *netWorld) partition(i, j int) {
	w.mu.Lock()
	w.blocked[pairOf(i, j)] = true
	w.mu.Unlock()
	// Dials now fail; existing connections are torn down explicitly, as a
	// real partition would sever them.
	w.nets[i].BreakConns()
	w.nets[j].BreakConns()
}
func (w *netWorld) heal(i, j int) {
	w.mu.Lock()
	delete(w.blocked, pairOf(i, j))
	w.mu.Unlock()
}
func (w *netWorld) overloadCapacity() int { return nettrans.QueueSlots }
func (w *netWorld) crash(i int) {
	done := make(chan struct{})
	w.hosts[i].Do(func() {
		w.eps[i].Proc().Crash()
		close(done)
	})
	<-done
}

// linger waits out loopback TCP: a frame sent before a delivery that has
// been seen lands within milliseconds.
func (w *netWorld) linger() { time.Sleep(100 * time.Millisecond) }
func (w *netWorld) close() {
	for _, nt := range w.nets {
		nt.Close()
	}
	for _, h := range w.hosts {
		h.Stop()
	}
}

// --- the contract -----------------------------------------------------

// overloadBurst overflows a nettrans link ring (nettrans.QueueSlots) 4x to
// force drops. The delivery test's burst (k per link) conversely fits under
// it: frames sent before the first dial lands queue in the ring, and a ring
// smaller than the burst legally tail-drops.
const overloadBurst = 4 * nettrans.QueueSlots

func conformanceWorlds(t *testing.T) map[string]func(t *testing.T, n int) (world, []*recorder) {
	return map[string]func(t *testing.T, n int) (world, []*recorder){
		"simnet": func(t *testing.T, n int) (world, []*recorder) {
			w := newSimWorld(t, n)
			return w, w.recs
		},
		"nettrans": func(t *testing.T, n int) (world, []*recorder) {
			w := newNetWorld(t, n)
			return w, w.recs
		},
		// The fate seam must be invisible to honest traffic: node 0 carries
		// an identity outbound rewrite and the network a deliver-all rule,
		// and the full contract — per-link FIFO, sender identity, no
		// duplicates, heal-resumes — must hold verbatim.
		"simnet-ruled": func(t *testing.T, n int) (world, []*recorder) {
			w := newSimWorldRuled(t, n, func(net *simnet.Network) {
				byz.Infect(net, 0, byz.Passthrough{})
				net.SetRule(func(ids.ID, ids.ID, []byte) (simnet.Fate, sim.Duration) { return simnet.Deliver, 0 })
			})
			return w, w.recs
		},
	}
}

// assertLinkFIFO checks the deliveries rec saw from sender: strictly
// increasing indices (FIFO with gaps, no duplicates) and no identity
// poison markers.
func assertLinkFIFO(t *testing.T, rec *recorder, sender ids.ID) {
	t.Helper()
	idxs := rec.from(sender)
	var last uint64
	for k, idx := range idxs {
		if idx == ^uint64(0) {
			t.Fatalf("sender identity forged on delivery %d from %v", k, sender)
		}
		if k > 0 && idx <= last {
			t.Fatalf("link %v FIFO violated: index %d after %d", sender, idx, last)
		}
		last = idx
	}
}

func TestTransportConformance(t *testing.T) {
	for name, build := range conformanceWorlds(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("DeliveryAndIdentity", func(t *testing.T) {
				const n, k = 3, 20
				w, recs := build(t, n)
				defer w.close()
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i == j {
							continue
						}
						for m := 0; m < k; m++ {
							w.send(i, j, msg(ids.ID(i), uint64(m+1)))
						}
					}
				}
				want := k * (n - 1)
				ok := w.settle(func() bool {
					for _, r := range recs {
						if r.count() < want {
							return false
						}
					}
					return true
				})
				if !ok {
					for i, r := range recs {
						t.Logf("endpoint %d: %d/%d", i, r.count(), want)
					}
					t.Fatal("full pairwise delivery did not complete")
				}
				for j, r := range recs {
					for i := 0; i < n; i++ {
						if i == j {
							continue
						}
						assertLinkFIFO(t, r, ids.ID(i))
						if got := len(r.from(ids.ID(i))); got != k {
							t.Fatalf("endpoint %d got %d/%d msgs from %d", j, got, k, i)
						}
					}
				}
			})

			// A frame the intake claims is still delivered once, with its
			// sender's identity; claimed and unclaimed frames each keep
			// their link's order (a claimed one may overtake unclaimed ones
			// waiting for the process).
			t.Run("IntakeDeliversOnce", func(t *testing.T) {
				const k = 20
				w, recs := build(t, 3)
				defer w.close()
				w.endpoint(1).SetIntake(func(f []byte) bool { return len(f) >= 16 && f[8]%2 == 1 })
				for m := 0; m < k; m++ {
					w.send(0, 1, msg(0, uint64(m+1)))
					w.send(2, 1, msg(2, uint64(m+1)))
				}
				if !w.settle(func() bool { return recs[1].count() >= 2*k }) {
					t.Fatalf("endpoint 1 got %d/%d msgs", recs[1].count(), 2*k)
				}
				w.linger()
				for _, from := range []ids.ID{0, 2} {
					var last [2]uint64
					idxs := recs[1].from(from)
					for _, idx := range idxs {
						if idx == ^uint64(0) || idx <= last[idx%2] {
							t.Fatalf("from %v: %v, want each of odd and even indices once, in order, with the sender's identity", from, idxs)
						}
						last[idx%2] = idx
					}
					if len(idxs) != k {
						t.Fatalf("from %v: %d/%d msgs", from, len(idxs), k)
					}
				}
			})

			t.Run("TailDropUnderOverload", func(t *testing.T) {
				w, recs := build(t, 2)
				defer w.close()
				// Sever the link so nothing drains, then overload it.
				w.partition(0, 1)
				for m := 0; m < overloadBurst; m++ {
					w.send(0, 1, msg(0, uint64(m+1)))
				}
				w.heal(0, 1)
				// A post-heal marker must arrive: overload never wedges the
				// link permanently.
				const marker = overloadBurst + 1
				w.send(0, 1, msg(0, marker))
				ok := w.settle(func() bool {
					idxs := recs[1].from(0)
					return len(idxs) > 0 && idxs[len(idxs)-1] == marker
				})
				if !ok {
					t.Fatalf("post-overload marker never arrived (got %v)", recs[1].from(0))
				}
				assertLinkFIFO(t, recs[1], 0)
				if cap := w.overloadCapacity(); cap > 0 {
					// Bounded backends must have tail-dropped: at most the
					// newest `cap` frames (plus one the writer may have
					// popped before the partition bit) survive, and the
					// newest pre-marker frame must be among them.
					idxs := recs[1].from(0)
					burst := 0
					hasNewest := false
					for _, idx := range idxs {
						if idx <= overloadBurst {
							burst++
						}
						if idx == overloadBurst {
							hasNewest = true
						}
					}
					if burst > cap+1 {
						t.Fatalf("expected tail-drop to at most %d queued frames, %d delivered", cap+1, burst)
					}
					if !hasNewest {
						t.Fatalf("newest burst frame dropped: tail-drop must keep the newest (got %v)", idxs)
					}
				}
			})

			// The largest payload the contract promises arrives whole (a
			// CTBcast summary of a paper-default deployment is ~2.2 MB).
			t.Run("MaxFrame", func(t *testing.T) {
				w, recs := build(t, 2)
				defer w.close()
				big := make([]byte, transport.MaxFrame)
				copy(big, msg(0, 1))
				w.send(0, 1, big)
				if !w.settle(func() bool { return recs[1].count() >= 1 }) {
					t.Fatal("a MaxFrame payload was never delivered")
				}
				if got := recs[1].from(0); len(got) != 1 || got[0] != 1 || recs[1].largestPayload() != transport.MaxFrame {
					t.Fatalf("delivered %v, longest %d B, want index 1 at %d B", got, recs[1].largestPayload(), transport.MaxFrame)
				}
			})

			t.Run("ReconnectAfterPartition", func(t *testing.T) {
				w, recs := build(t, 2)
				defer w.close()
				w.send(0, 1, msg(0, 1))
				if !w.settle(func() bool { return recs[1].count() >= 1 }) {
					t.Fatal("pre-partition delivery failed")
				}
				w.partition(0, 1)
				w.send(0, 1, msg(0, 2)) // may be lost or queued; both are legal
				w.heal(0, 1)
				w.send(0, 1, msg(0, 3))
				ok := w.settle(func() bool {
					idxs := recs[1].from(0)
					return len(idxs) > 0 && idxs[len(idxs)-1] == 3
				})
				if !ok {
					t.Fatalf("delivery did not resume after heal (got %v)", recs[1].from(0))
				}
				assertLinkFIFO(t, recs[1], 0)
			})

			// Crash-stop is the one way a node stops: once an endpoint's
			// process crashes, nothing is delivered to it or sent from it,
			// and the live links carry on.
			t.Run("CrashedEndpointIsSilent", func(t *testing.T) {
				const k = 11
				w, recs := build(t, 3)
				defer w.close()
				w.crash(1)
				for m := 0; m < k; m++ {
					w.send(0, 1, msg(0, uint64(m+1)))
					w.send(1, 0, msg(1, uint64(m+1)))
					w.send(1, 2, msg(1, uint64(m+1)))
				}
				w.send(0, 2, msg(0, 1))
				w.send(2, 0, msg(2, 1))
				if !w.settle(func() bool { return recs[2].count() >= 1 && len(recs[0].from(2)) >= 1 }) {
					t.Fatal("the live links stopped delivering")
				}
				w.linger()
				if got, from0, from2 := recs[1].count(), recs[0].from(1), recs[2].from(1); got != 0 || len(from0) != 0 || len(from2) != 0 {
					t.Fatalf("crashed endpoint received %d of %d frames and sent %d and %d of %d", got, k, len(from0), len(from2), k)
				}
			})
		})
	}
}
