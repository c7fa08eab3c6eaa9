package simnet

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/sim"
)

func twoNodes(t *testing.T, opts Options) (*sim.Engine, *Network, *Node, *Node) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e, opts)
	a := n.AddNode(0, "a")
	b := n.AddNode(1, "b")
	return e, n, a, b
}

func TestDelivery(t *testing.T) {
	e, _, a, b := twoNodes(t, RDMAOptions())
	var gotFrom ids.ID = ids.None
	var gotPayload []byte
	b.SetHandler(func(from ids.ID, p []byte) { gotFrom, gotPayload = from, p })
	a.Send(1, []byte("hello"))
	e.Run()
	if gotFrom != 0 || string(gotPayload) != "hello" {
		t.Fatalf("delivery wrong: from=%v payload=%q", gotFrom, gotPayload)
	}
}

func TestDeliveryLatencyBounds(t *testing.T) {
	e, _, a, b := twoNodes(t, RDMAOptions())
	var at sim.Time = -1
	b.SetHandler(func(ids.ID, []byte) { at = e.Now() })
	payload := make([]byte, 1024)
	a.Send(1, payload)
	e.Run()
	min := latmodel.WireBase
	max := latmodel.WireBase + latmodel.PerByte(1024+64) + latmodel.WireJitter +
		2*latmodel.DispatchCost + sim.Microsecond
	if at < sim.Time(min) || at > sim.Time(max) {
		t.Fatalf("delivery at %v outside [%v, %v]", at, min, max)
	}
}

func TestLargerMessagesArriveLater(t *testing.T) {
	opts := RDMAOptions()
	opts.Jitter = 0
	e, _, a, b := twoNodes(t, opts)
	var times []sim.Time
	b.SetHandler(func(ids.ID, []byte) { times = append(times, e.Now()) })
	a.Send(1, make([]byte, 8192))
	e.Run()
	big := times[0]

	e2 := sim.NewEngine(1)
	n2 := New(e2, opts)
	a2 := n2.AddNode(0, "a")
	b2 := n2.AddNode(1, "b")
	var small sim.Time
	b2.SetHandler(func(ids.ID, []byte) { small = e2.Now() })
	a2.Send(1, make([]byte, 8))
	e2.Run()
	if big <= small {
		t.Fatalf("8KiB message (%v) not slower than 8B (%v)", big, small)
	}
}

func TestPartition(t *testing.T) {
	e, n, a, b := twoNodes(t, RDMAOptions())
	got := 0
	b.SetHandler(func(ids.ID, []byte) { got++ })
	n.Partition(0, 1)
	a.Send(1, []byte("x"))
	e.Run()
	if got != 0 {
		t.Fatal("partitioned message delivered")
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped)
	}
	n.Heal(0, 1)
	a.Send(1, []byte("y"))
	e.Run()
	if got != 1 {
		t.Fatal("healed link did not deliver")
	}
	n.Partition(0, 1)
	n.HealAll()
	a.Send(1, []byte("z"))
	e.Run()
	if got != 2 {
		t.Fatal("HealAll did not heal")
	}
}

func TestPartitionSymmetric(t *testing.T) {
	_, n, _, _ := twoNodes(t, RDMAOptions())
	n.Partition(1, 0)
	if !n.Partitioned(0, 1) || !n.Partitioned(1, 0) {
		t.Fatal("partition not symmetric")
	}
}

func TestCrashedSenderSendsNothing(t *testing.T) {
	e, n, a, b := twoNodes(t, RDMAOptions())
	got := 0
	b.SetHandler(func(ids.ID, []byte) { got++ })
	a.Proc().Crash()
	a.Send(1, []byte("x"))
	e.Run()
	if got != 0 || n.MsgsSent != 0 {
		t.Fatal("crashed sender transmitted")
	}
}

func TestCrashedReceiverDropsDelivery(t *testing.T) {
	e, _, a, b := twoNodes(t, RDMAOptions())
	got := 0
	b.SetHandler(func(ids.ID, []byte) { got++ })
	a.Send(1, []byte("x"))
	b.Proc().Crash()
	e.Run()
	if got != 0 {
		t.Fatal("crashed receiver handled message")
	}
}

func TestPreGSTDropsAndDelays(t *testing.T) {
	opts := RDMAOptions()
	opts.GST = sim.Time(1 * sim.Millisecond)
	opts.AsyncExtraMax = 100 * sim.Microsecond
	opts.AsyncDropProb = 0.5
	e := sim.NewEngine(7)
	n := New(e, opts)
	a := n.AddNode(0, "a")
	b := n.AddNode(1, "b")
	got := 0
	b.SetHandler(func(ids.ID, []byte) { got++ })
	const sent = 200
	for i := 0; i < sent; i++ {
		a.Send(1, []byte("x"))
	}
	e.Run()
	if got == sent || got == 0 {
		t.Fatalf("pre-GST drop model inert: %d/%d delivered", got, sent)
	}
	if n.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestPostGSTNeverDrops(t *testing.T) {
	opts := RDMAOptions()
	opts.GST = 0
	opts.AsyncDropProb = 0.9
	e := sim.NewEngine(7)
	n := New(e, opts)
	a := n.AddNode(0, "a")
	b := n.AddNode(1, "b")
	got := 0
	b.SetHandler(func(ids.ID, []byte) { got++ })
	for i := 0; i < 100; i++ {
		a.Send(1, []byte("x"))
	}
	e.Run()
	if got != 100 {
		t.Fatalf("post-GST dropped messages: %d/100", got)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, RDMAOptions())
	n.AddNode(0, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	n.AddNode(0, "b")
}

func TestSendToUnknownDrops(t *testing.T) {
	// An unregistered destination is a crashed-and-removed host (see
	// RemoveNode): packets to it vanish like on a partitioned link — peers
	// and clients keep broadcasting to a dead replica until it rejoins, and
	// that must not take the sender down.
	e := sim.NewEngine(1)
	n := New(e, RDMAOptions())
	a := n.AddNode(0, "a")
	a.Send(99, []byte("x"))
	e.Run()
	if n.Dropped != 1 || n.MsgsSent != 1 {
		t.Fatalf("unknown-destination send: Dropped=%d MsgsSent=%d, want 1/1", n.Dropped, n.MsgsSent)
	}
}

func TestRemoveNodeRebind(t *testing.T) {
	// Remove-then-re-add rebinds an identity to a fresh process: in-flight
	// messages bound to the dead process die with it, later sends reach the
	// new one.
	e := sim.NewEngine(1)
	n := New(e, RDMAOptions())
	a := n.AddNode(0, "a")
	b := n.AddNode(1, "b1")
	got := 0
	a.Send(1, []byte("pre")) // in flight when b crashes
	b.Proc().Crash()
	n.RemoveNode(1)
	b2 := n.AddNode(1, "b2")
	b2.SetHandler(func(_ ids.ID, p []byte) { got++ })
	a.Send(1, []byte("post"))
	e.Run()
	if got != 1 {
		t.Fatalf("reborn node got %d messages, want 1 (pre-crash send must die)", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	e, n, a, b := twoNodes(t, RDMAOptions())
	b.SetHandler(func(ids.ID, []byte) {})
	a.Send(1, make([]byte, 100))
	e.Run()
	if n.MsgsSent != 1 {
		t.Fatalf("MsgsSent = %d", n.MsgsSent)
	}
	if n.BytesSent != 100+64 {
		t.Fatalf("BytesSent = %d", n.BytesSent)
	}
}

func TestTCPOptionsSlowerThanRDMA(t *testing.T) {
	if TCPOptions().BaseLatency <= RDMAOptions().BaseLatency {
		t.Fatal("TCP baseline should be slower than RDMA")
	}
}

func TestAttachNodeSharesProc(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, RDMAOptions())
	host := sim.NewProc(e, "host")
	a := n.AttachNode(0, host)
	b := n.AddNode(1, "b")
	got := 0
	b.SetHandler(func(ids.ID, []byte) { got++ })
	if a.Proc() != host {
		t.Fatal("AttachNode did not reuse the process")
	}
	// A busy shared process delays the attached node's sends.
	host.Charge(10 * sim.Microsecond)
	var at sim.Time
	b.SetHandler(func(ids.ID, []byte) { at = e.Now() })
	a.Send(1, []byte("x"))
	e.Run()
	if at < sim.Time(10*sim.Microsecond) {
		t.Fatalf("send did not queue behind shared process: %v", at)
	}
}

func TestAttachDuplicatePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, RDMAOptions())
	n.AddNode(0, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AttachNode did not panic")
		}
	}()
	n.AttachNode(0, sim.NewProc(e, "dup"))
}

func TestSetGST(t *testing.T) {
	e := sim.NewEngine(7)
	n := New(e, RDMAOptions())
	a := n.AddNode(0, "a")
	b := n.AddNode(1, "b")
	got := 0
	b.SetHandler(func(ids.ID, []byte) { got++ })
	n.SetGST(sim.Time(sim.Millisecond), 0, 1.0) // drop everything pre-GST
	a.Send(1, []byte("x"))
	e.Run()
	if got != 0 {
		t.Fatal("pre-GST message with drop probability 1 delivered")
	}
	e.RunUntil(sim.Time(sim.Millisecond))
	a.Send(1, []byte("y"))
	e.Run()
	if got != 1 {
		t.Fatal("post-GST message dropped")
	}
	if n.Options().GST != sim.Time(sim.Millisecond) {
		t.Fatal("Options() does not reflect SetGST")
	}
}

// TestIntakeTakesOnArrival: a frame the receiver's intake claims runs the
// instant it arrives, though the receiver is busy, and costs it nothing; a
// frame it does not claim queues behind the receiver's busy horizon and pays
// its dispatch. A claimed frame to a crashed host dies with it.
func TestIntakeTakesOnArrival(t *testing.T) {
	opts := RDMAOptions()
	opts.Jitter = 0
	e, _, a, b := twoNodes(t, opts)
	b.SetIntake(func(f []byte) bool { return f[0] == 'r' })
	var got []string
	b.SetHandler(func(_ ids.ID, p []byte) { got = append(got, fmt.Sprintf("%s@%d", p, e.Now())) })
	b.Proc().Charge(50 * sim.Microsecond)
	busy := b.Proc().BusyUntil()
	a.Send(1, []byte("w"))
	a.Send(1, []byte("r")) // posted after w, one dispatch later
	e.Run()
	arrive := sim.Time(2*latmodel.DispatchCost + opts.BaseLatency + latmodel.PerByte(1+opts.HeaderBytes))
	want := []string{fmt.Sprintf("r@%d", arrive), fmt.Sprintf("w@%d", busy)}
	if !slices.Equal(got, want) || b.Proc().BusyUntil() != busy.Add(latmodel.DispatchCost) {
		t.Fatalf("delivered %v, receiver busy until %v: want %v and %v", got, b.Proc().BusyUntil(), want, busy.Add(latmodel.DispatchCost))
	}

	got = nil
	a.Send(1, []byte("r"))
	b.Proc().Crash()
	e.Run()
	if len(got) != 0 {
		t.Fatalf("a crashed host took %v", got)
	}
}

// TestCorePostLeavesAtOnce: a send made from an event on another core of the
// sending host (sim.Proc.NewCore) is that core's post: it leaves when the
// event runs, though the host's main process is busy, and charges the main
// process nothing. A send from another host's process is the main process's
// as ever: charged to it, and leaving behind its queued work.
func TestCorePostLeavesAtOnce(t *testing.T) {
	opts := RDMAOptions()
	opts.Jitter = 0
	e, _, a, b := twoNodes(t, opts)
	var got []sim.Time
	b.SetHandler(func(ids.ID, []byte) { got = append(got, e.Now()) })
	main := a.Proc()
	main.Charge(20 * sim.Microsecond)
	busy := main.BusyUntil()
	main.NewCore("a-core").Exec(5*sim.Microsecond, func() { a.Send(1, []byte("x")) })
	sim.NewProc(e, "elsewhere").Exec(5*sim.Microsecond, func() { a.Send(1, []byte("y")) })
	e.Run()
	wire := opts.BaseLatency + latmodel.PerByte(1+opts.HeaderBytes)
	want := []sim.Time{sim.Time(5 * sim.Microsecond).Add(wire), busy.Add(latmodel.DispatchCost + wire)}
	if !slices.Equal(got, want) || main.BusyUntil() != busy.Add(latmodel.DispatchCost) {
		t.Fatalf("arrivals %v, main busy until %v: want %v and %v", got, main.BusyUntil(), want, busy.Add(latmodel.DispatchCost))
	}
}
