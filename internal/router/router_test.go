package router

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func pairRig() (*sim.Engine, *Router, *Router) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	a := New(net.AddNode(0, "a"))
	b := New(net.AddNode(1, "b"))
	return eng, a, b
}

func TestChannelDispatch(t *testing.T) {
	eng, a, b := pairRig()
	var gotRPC, gotDirect []byte
	b.Register(ChanRPC, func(from ids.ID, p []byte) { gotRPC = p })
	b.Register(ChanDirect, func(from ids.ID, p []byte) { gotDirect = p })
	a.Send(1, ChanRPC, []byte("rpc"))
	a.Send(1, ChanDirect, []byte("direct"))
	eng.Run()
	if string(gotRPC) != "rpc" || string(gotDirect) != "direct" {
		t.Fatalf("dispatch wrong: %q %q", gotRPC, gotDirect)
	}
}

// SendFrame dispatches on the frame's own first byte and delivers, behind
// it, the very bytes that were sent: no copy is made.
func TestSendFrameSharesTheFrame(t *testing.T) {
	eng, a, b := pairRig()
	var got []byte
	b.Register(ChanRing, func(_ ids.ID, p []byte) { got = p })
	frame := []byte{ChanRing, 'r', 'i', 'n', 'g'}
	a.SendFrame(1, frame)
	eng.Run()
	if string(got) != "ring" || &got[0] != &frame[1] {
		t.Fatalf("SendFrame delivered %q, want a view of the sent frame behind its tag", got)
	}
}

func TestSenderIdentityPreserved(t *testing.T) {
	eng, a, b := pairRig()
	var from ids.ID = ids.None
	b.Register(ChanRPC, func(f ids.ID, p []byte) { from = f })
	a.Send(1, ChanRPC, []byte("x"))
	eng.Run()
	if from != 0 {
		t.Fatalf("from = %v", from)
	}
}

func TestUnregisteredChannelDropped(t *testing.T) {
	eng, a, b := pairRig()
	called := false
	b.Register(ChanRPC, func(ids.ID, []byte) { called = true })
	a.Send(1, ChanMemReq, []byte("x")) // nothing registered for this
	eng.Run()
	if called {
		t.Fatal("message leaked across channels")
	}
}

func TestEmptyFrameDropped(t *testing.T) {
	eng, a, b := pairRig()
	called := false
	b.Register(ChanRPC, func(ids.ID, []byte) { called = true })
	// Bypass Router.Send to deliver a raw zero-length frame.
	a.Node().Send(1, nil)
	eng.Run()
	if called {
		t.Fatal("empty frame dispatched")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	_, a, _ := pairRig()
	a.Register(ChanRPC, func(ids.ID, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	a.Register(ChanRPC, func(ids.ID, []byte) {})
}

// Channel 0 is where Split puts an empty frame, so no handler may take it.
func TestChannelZeroReserved(t *testing.T) {
	_, a, _ := pairRig()
	defer func() {
		if recover() == nil {
			t.Fatal("registering channel 0 did not panic")
		}
	}()
	a.Register(0, func(ids.ID, []byte) {})
}

func TestEmptyPayloadStillTagged(t *testing.T) {
	eng, a, b := pairRig()
	got := false
	var body []byte
	b.Register(ChanDirect, func(_ ids.ID, p []byte) { got, body = true, p })
	a.Send(1, ChanDirect, nil)
	eng.Run()
	if !got || len(body) != 0 {
		t.Fatalf("empty payload mishandled: got=%v body=%v", got, body)
	}
}

func TestIDAccessor(t *testing.T) {
	_, a, b := pairRig()
	if a.ID() != 0 || b.ID() != 1 {
		t.Fatal("router IDs wrong")
	}
}

// emptyFreeList forgets every released frame, so a test counts only its own.
func emptyFreeList() {
	free.Lock()
	defer free.Unlock()
	free.byLen, free.count = nil, 0
}

// TestFreeListReusesByLength: Frame hands back a released frame of the length
// asked for, most recent first, and a fresh one for any other length.
func TestFreeListReusesByLength(t *testing.T) {
	emptyFreeList()
	a, b := make([]byte, 13), make([]byte, 34)
	Release(a)
	Release(b)
	if got := Frame(21); len(got) != 21 || sameArray(got, a) || sameArray(got, b) {
		t.Fatal("a frame of another length was handed out")
	}
	if got := Frame(34); !sameArray(got, b) {
		t.Fatal("the released 34-byte frame was not reused")
	}
	if got := Frame(13); !sameArray(got, a) {
		t.Fatal("the released 13-byte frame was not reused")
	}
	if got := Frame(13); sameArray(got, a) || len(got) != 13 {
		t.Fatal("a frame was handed out twice")
	}
}

// TestFreeListBounded: a process that releases more frames than it takes
// keeps maxFree of them, whatever their lengths, and the rest go to the
// garbage collector.
func TestFreeListBounded(t *testing.T) {
	emptyFreeList()
	released := map[*byte]bool{}
	for i := range maxFree + 100 {
		f := make([]byte, 13+i%2)
		released[&f[0]] = true
		Release(f)
	}
	reused := 0
	for i := range maxFree + 100 {
		if f := Frame(13 + i%2); released[&f[0]] {
			reused++
		}
	}
	if reused != maxFree {
		t.Fatalf("%d released frames came back, want the bound %d", reused, maxFree)
	}
}

// TestFreeListShared: nodes on different engine goroutines take frames from
// the free list, carve them from its blocks on a miss and release them into
// it concurrently; under the race detector (make race) an unguarded list or
// block fails. Each goroutine runs a deployment of its own whose receiver
// releases every frame it reads, and every frame Frame hands out, carved or
// reused, has cap == len. Then a carved frame, released, comes back whole.
func TestFreeListShared(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, a, b := pairRig()
			b.RegisterFrame(ChanRingAck, func(_ ids.ID, f []byte) {
				if cap(f) != len(f) || f[1] != byte(g) {
					t.Errorf("deployment %d: a delivered frame is not the one sent whole", g)
				}
				Release(f)
			})
			for i := range 500 {
				f := Frame(16 + i%3 + 4*g)
				if cap(f) != len(f) {
					t.Errorf("deployment %d: Frame(%d) handed out a frame of cap %d", g, len(f), cap(f))
					return
				}
				f[0], f[1] = ChanRingAck, byte(g)
				a.SendFrame(1, f)
				if i%50 == 49 {
					eng.Run()
				}
			}
			eng.Run()
		}()
	}
	wg.Wait()

	// A released carved frame is what the next Frame of its length hands
	// out, whole, and writing past its end leaves the frame carved after it
	// as it was.
	emptyFreeList()
	f, next := Frame(24), Frame(24)
	for i := range next {
		next[i] = 0x5A
	}
	Release(f)
	g := Frame(24)
	if !sameArray(g, f) || len(g) != 24 || cap(g) != 24 {
		t.Fatalf("the released carved frame came back as len %d cap %d (same: %v)", len(g), cap(g), sameArray(g, f))
	}
	g = append(g[:0], bytes.Repeat([]byte{0xA5}, 25)...)
	if sameArray(g, f) || !bytes.Equal(next, bytes.Repeat([]byte{0x5A}, 24)) {
		t.Fatal("writing past a carved frame's end reached the next frame")
	}
}

// sameArray reports whether a and b start at the same byte in memory.
func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
