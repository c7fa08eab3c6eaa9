package memnode

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// rig wires one memory node (id 10) and two compute hosts (0 = owner,
// 1 = other).
type rig struct {
	eng   *sim.Engine
	node  *Node
	owner *router.Router
	other *router.Router
	resps map[ids.ID][]Response
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	mrt := router.New(net.AddNode(10, "mem"))
	r := &rig{
		eng:   eng,
		node:  New(mrt),
		owner: router.New(net.AddNode(0, "owner")),
		other: router.New(net.AddNode(1, "other")),
		resps: make(map[ids.ID][]Response),
	}
	for _, rt := range []*router.Router{r.owner, r.other} {
		id := rt.ID()
		rt.Register(router.ChanMemResp, func(from ids.ID, payload []byte) {
			resp, err := DecodeResponse(payload)
			if err != nil {
				t.Errorf("bad response: %v", err)
				return
			}
			r.resps[id] = append(r.resps[id], resp)
		})
	}
	return r
}

// write and read build numbered request frames, channel tag first.
func write(seq uint64, id RegionID, off int, data []byte) []byte {
	frame, window := EncodeWrite(id, off, len(data))
	copy(window, data)
	SetSeq(frame, seq)
	return frame
}

func read(seq uint64, id RegionID) []byte {
	frame := EncodeRead(id)
	SetSeq(frame, seq)
	return frame
}

func (r *rig) last(id ids.ID) Response {
	rs := r.resps[id]
	return rs[len(rs)-1]
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 64)
	r.owner.SendFrame(10, write(1, 1, 0, []byte("hello-region")))
	r.eng.Run()
	if got := r.last(0); got.Status != StatusOK || !got.IsWriteResp() {
		t.Fatalf("write resp: %+v", got)
	}
	r.other.SendFrame(10, read(2, 1))
	r.eng.Run()
	got := r.last(1)
	if got.Status != StatusOK || !bytes.HasPrefix(got.Data, []byte("hello-region")) {
		t.Fatalf("read resp: %+v", got)
	}
	if len(got.Data) != 64 {
		t.Fatalf("read returned %d bytes, want full region", len(got.Data))
	}
}

func TestPermissionFault(t *testing.T) {
	// RDMA-style access control: only the region owner can write.
	r := newRig(t)
	r.node.Allocate(1, 0, 32)
	r.other.SendFrame(10, write(1, 1, 0, []byte("forged")))
	r.eng.Run()
	if got := r.last(1); got.Status != StatusPermDenied {
		t.Fatalf("non-owner write status = %d, want PermDenied", got.Status)
	}
	// The region contents are untouched.
	r.owner.SendFrame(10, read(2, 1))
	r.eng.Run()
	if got := r.last(0); !bytes.Equal(got.Data, make([]byte, 32)) {
		t.Fatal("region mutated by rejected write")
	}
}

func TestReadableByEveryone(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 16)
	r.owner.SendFrame(10, write(1, 1, 0, []byte("pub")))
	r.eng.Run()
	for _, rt := range []*router.Router{r.owner, r.other} {
		rt.SendFrame(10, read(9, 1))
	}
	r.eng.Run()
	for _, id := range []ids.ID{0, 1} {
		if got := r.last(id); got.Status != StatusOK {
			t.Fatalf("reader %v denied: %+v", id, got)
		}
	}
}

func TestUnknownRegion(t *testing.T) {
	r := newRig(t)
	r.owner.SendFrame(10, read(1, 99))
	r.owner.SendFrame(10, write(2, 99, 0, []byte("x")))
	r.eng.Run()
	for _, got := range r.resps[0] {
		if got.Status != StatusNoRegion {
			t.Fatalf("unknown region status = %d", got.Status)
		}
	}
}

func TestOutOfBoundsWrite(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 8)
	r.owner.SendFrame(10, write(1, 1, 4, []byte("too-long")))
	r.eng.Run()
	if got := r.last(0); got.Status != StatusBadRequest {
		t.Fatalf("oob write status = %d", got.Status)
	}
}

func TestOffsetWrite(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 16)
	r.owner.SendFrame(10, write(1, 1, 8, []byte("BBBB")))
	r.eng.Run()
	r.owner.SendFrame(10, read(2, 1))
	r.eng.Run()
	got := r.last(0)
	if !bytes.Equal(got.Data[8:12], []byte("BBBB")) || got.Data[0] != 0 {
		t.Fatalf("offset write wrong: %v", got.Data)
	}
}

func TestCrashedNodeSilent(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 8)
	r.node.Crash()
	if !r.node.Crashed() {
		t.Fatal("Crashed() false")
	}
	r.owner.SendFrame(10, read(1, 1))
	r.eng.Run()
	if len(r.resps[0]) != 0 {
		t.Fatal("crashed memory node responded")
	}
}

// TestMalformedRequestRejected: a malformed request gets one BadRequest
// completion (the node never crashes on garbage — memory nodes are trusted
// but their clients may not be), from any client, the region's owner
// included.
func TestMalformedRequestRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"truncated", []byte{router.ChanMemReq, 1, 2}},
		// off+len(data) overflows: a bounds check that adds the two wraps
		// and lets the write through.
		{"offset overflow", write(1, 1, math.MaxInt64-3, make([]byte, 8))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			r.node.Allocate(1, 0, 8)
			r.owner.SendFrame(10, tc.frame)
			r.eng.Run()
			if len(r.resps[0]) != 1 || r.resps[0][0].Status != StatusBadRequest {
				t.Fatalf("completions %+v, want one BadRequest", r.resps[0])
			}
		})
	}
}

// FuzzMemNodeRequest: a region's owner, Byzantine or not, sends the node
// arbitrary request frames. The node must never panic, and it answers every
// frame with exactly one completion.
func FuzzMemNodeRequest(f *testing.F) {
	f.Add(write(1, 1, 0, []byte("12345678"))[1:])
	f.Add(write(2, 1, 4, []byte("1234"))[1:])
	f.Add(read(3, 1)[1:])
	f.Add(write(4, 1, math.MaxInt64-3, make([]byte, 8))[1:])
	f.Add([]byte{1, 2})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := newRig(t)
		r.node.Allocate(1, 0, 8)
		r.owner.Send(10, router.ChanMemReq, payload)
		r.eng.Run()
		if len(r.resps[0]) != 1 {
			t.Fatalf("%d completions, want 1", len(r.resps[0]))
		}
		if c, res := r.node.CommittedBytes(0), r.node.BytesOwnedBy(0); c > res {
			t.Fatalf("%d bytes committed, %d reserved", c, res)
		}
	})
}

func TestDuplicateAllocationPanics(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate allocation did not panic")
		}
	}()
	r.node.Allocate(1, 0, 8)
}

func TestAllocationAccounting(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 100)
	r.node.Allocate(2, 1, 50)
	if r.node.AllocatedBytes != 150 {
		t.Fatalf("AllocatedBytes = %d", r.node.AllocatedBytes)
	}
}

func TestTornReadModel(t *testing.T) {
	// A read that lands inside a write's settling window sees a prefix of
	// new data and a suffix of old data at 8-byte granularity — never
	// interleaved garbage. The node writes that overlay straight into the
	// completion frame: the region itself already holds the new data, so old
	// bytes in an answer can only have come from the overlay.
	const size = 4096 // settles over CopyCost(4096), ~0.6 us
	r := newRig(t)
	r.node.Allocate(1, 0, size)
	oldData := bytes.Repeat([]byte{0xAA}, size)
	newData := bytes.Repeat([]byte{0xBB}, size)
	r.owner.SendFrame(10, write(1, 1, 0, oldData))
	r.eng.Run()
	// The write, and a read every 350 ns for the next 10 us: spaced wider
	// than the node takes to answer one and closer than the window, so one
	// arrives inside it.
	const reads = 30
	r.owner.SendFrame(10, write(2, 1, 0, newData))
	for i := 0; i < reads; i++ {
		seq := uint64(3 + i)
		r.eng.After(sim.Duration(i)*350*sim.Nanosecond, func() { r.other.SendFrame(10, read(seq, 1)) })
	}
	r.eng.Run()
	torn := 0
	for _, resp := range r.resps[1] {
		got := resp.Data
		boundary := 0
		for boundary < size && got[boundary] == 0xBB {
			boundary++
		}
		for i := boundary; i < size; i++ {
			if got[i] != 0xAA {
				t.Fatalf("torn read interleaved at byte %d (boundary %d)", i, boundary)
			}
		}
		if boundary%8 != 0 {
			t.Fatalf("torn boundary %d not 8-byte aligned", boundary)
		}
		if boundary > 0 && boundary < size {
			torn++
		}
	}
	t.Logf("%d of %d answers torn", torn, len(r.resps[1]))
	if len(r.resps[1]) != reads || torn == 0 {
		t.Fatalf("%d answers, %d of them torn: no read landed inside the settling window", len(r.resps[1]), torn)
	}
	if last := r.last(1).Data; !bytes.Equal(last, newData) {
		t.Fatal("a read after the settling window does not see the write")
	}
}

// TestUnwrittenRegionReadsZeros: a READ of a region nobody has written
// returns the full region as zeros, the completion a node that made every
// region's bytes at Allocate sent: before its writer's span is committed,
// when it commits nothing, and after another region of the span was written.
func TestUnwrittenRegionReadsZeros(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 48)
	r.node.Allocate(2, 0, 16)
	check := func(when string) {
		t.Helper()
		for _, rt := range []*router.Router{r.owner, r.other} {
			rt.SendFrame(10, read(9, 1))
			r.eng.Run()
			if got := r.last(rt.ID()); got.Status != StatusOK || got.Seq != 9 || !bytes.Equal(got.Data, make([]byte, 48)) {
				t.Fatalf("%s: reader %v got %+v, want 48 zero bytes", when, rt.ID(), got)
			}
		}
	}
	check("span uncommitted")
	if c := r.node.CommittedBytes(0); c != 0 {
		t.Fatalf("READs committed %d bytes", c)
	}
	r.owner.SendFrame(10, write(1, 2, 0, []byte("other region")))
	r.eng.Run()
	check("span committed")
}

// TestRefusedWriteCommitsNothing: a WRITE to no region, by a non-owner or out
// of bounds is refused before anything is committed.
func TestRefusedWriteCommitsNothing(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 8)
	for _, c := range []struct {
		from   *router.Router
		frame  []byte
		status uint8
	}{
		{r.owner, write(1, 99, 0, []byte("x")), StatusNoRegion},
		{r.other, write(2, 1, 0, []byte("forged")), StatusPermDenied},
		{r.owner, write(3, 1, 4, []byte("too-long")), StatusBadRequest},
		{r.owner, write(4, 1, math.MaxInt64-3, make([]byte, 8)), StatusBadRequest},
	} {
		c.from.SendFrame(10, c.frame)
		r.eng.Run()
		if got := r.last(c.from.ID()); got.Status != c.status {
			t.Fatalf("status %d, want %d", got.Status, c.status)
		}
	}
	for _, id := range []ids.ID{0, 1} {
		if c := r.node.CommittedBytes(id); c != 0 {
			t.Fatalf("refused WRITEs committed %d bytes for %v", c, id)
		}
	}
}

// TestFirstWriteCommitsTheWritersSpan: an owner's first WRITE commits its
// whole reservation and nobody else's; a region allocated to it afterwards
// is still addressable, and its first WRITE extends the span to the new
// reservation.
func TestFirstWriteCommitsTheWritersSpan(t *testing.T) {
	r := newRig(t)
	r.node.Allocate(1, 0, 24)
	r.node.Allocate(2, 1, 40)
	r.node.Allocate(3, 0, 16)
	r.owner.SendFrame(10, write(1, 3, 8, []byte("in-3")))
	r.eng.Run()
	if c, res := r.node.CommittedBytes(0), r.node.BytesOwnedBy(0); c != res || res != 40 {
		t.Fatalf("owner committed %d of %d reserved bytes, want all 40", c, res)
	}
	if c := r.node.CommittedBytes(1); c != 0 {
		t.Fatalf("another writer's WRITE committed %d bytes for p1", c)
	}
	r.node.Allocate(4, 0, 32)
	r.other.SendFrame(10, read(2, 4))
	r.eng.Run()
	if got := r.last(1); got.Status != StatusOK || !bytes.Equal(got.Data, make([]byte, 32)) {
		t.Fatalf("region allocated after the commit read %+v", got)
	}
	r.owner.SendFrame(10, write(3, 4, 28, []byte("tail")))
	r.eng.Run()
	if c, res := r.node.CommittedBytes(0), r.node.BytesOwnedBy(0); c != res || res != 72 {
		t.Fatalf("owner committed %d of %d reserved bytes, want all 72", c, res)
	}
	for _, c := range []struct {
		id   RegionID
		want []byte
	}{
		{1, make([]byte, 24)},
		{3, append(make([]byte, 8), "in-3\x00\x00\x00\x00"...)},
		{4, append(make([]byte, 28), "tail"...)},
	} {
		r.other.SendFrame(10, read(4, c.id))
		r.eng.Run()
		if got := r.last(1); got.Status != StatusOK || !bytes.Equal(got.Data, c.want) {
			t.Fatalf("region %d read %q, want %q", c.id, got.Data, c.want)
		}
	}
}
