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
	frame, window := EncodeWrite(nil, id, off, len(data))
	copy(window, data)
	SetSeq(frame, seq)
	return frame
}

func read(seq uint64, id RegionID) []byte {
	frame := EncodeRead(nil, id)
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
	f.Add(write(5, 5, 8, []byte("12345678"))[1:]) // the middle of the second range
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := newRig(t)
		r.node.Allocate(1, 0, 8)
		r.node.AllocateRange(4, 3, 0, 16) // regions 4-6, after a gap
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

// TestOverlappingRangePanics: a range that overlaps an allocated one at its
// first, a middle or its last region, or covers it, panics; ranges adjacent to
// it on either side are accepted.
func TestOverlappingRangePanics(t *testing.T) {
	for _, c := range []struct {
		name         string
		first        RegionID
		count        int
		wantOverlaps bool
	}{
		{"at its first", 8, 3, true},
		{"at a middle", 12, 1, true},
		{"at its last", 14, 5, true},
		{"covering it", 2, 20, true},
		{"adjacent below", 5, 5, false},
		{"adjacent above", 15, 5, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			r.node.AllocateRange(10, 5, 0, 8) // regions 10-14
			defer func() {
				if panicked := recover() != nil; panicked != c.wantOverlaps {
					t.Fatalf("regions %d+%d: panicked %v, want %v", c.first, c.count, panicked, c.wantOverlaps)
				}
			}()
			r.node.AllocateRange(c.first, c.count, 1, 8)
		})
	}
}

// TestGapsAreNoRegion: a READ or WRITE of an ID before the first range,
// between two ranges or past the last one answers StatusNoRegion; every ID
// inside a range is served.
func TestGapsAreNoRegion(t *testing.T) {
	r := newRig(t)
	r.node.AllocateRange(2, 3, 0, 8) // 2-4
	r.node.AllocateRange(7, 2, 0, 8) // 7-8
	seq := uint64(0)
	for id := RegionID(0); id < 12; id++ {
		want := StatusNoRegion
		if id >= 2 && id <= 4 || id == 7 || id == 8 {
			want = StatusOK
		}
		seq++
		r.owner.SendFrame(10, read(seq, id))
		seq++
		r.owner.SendFrame(10, write(seq, id, 0, []byte("x")))
		r.eng.Run()
		for _, got := range r.resps[0][len(r.resps[0])-2:] {
			if got.Status != want {
				t.Fatalf("region %d: status %d, want %d", id, got.Status, want)
			}
		}
	}
}

// TestWriteTearsOnlyItsRegion: a read of region k inside the settling window
// of a WRITE to it may be torn, and reads of its neighbours k-1 and k+1 in
// the same range, each holding other bytes, never are.
func TestWriteTearsOnlyItsRegion(t *testing.T) {
	const size = 16384 // settles over CopyCost(16384), ~2.4 us
	r := newRig(t)
	r.node.AllocateRange(1, 3, 0, size)
	held := func(id RegionID) []byte { return bytes.Repeat([]byte{0x11 * byte(id)}, size) }
	for id := RegionID(1); id <= 3; id++ {
		r.owner.SendFrame(10, write(uint64(id), id, 0, held(id)))
	}
	r.eng.Run()
	// The write, and a read every 350 ns, of regions 1, 2 and 3 in turn.
	newData := bytes.Repeat([]byte{0xBB}, size)
	r.owner.SendFrame(10, write(4, 2, 0, newData))
	const reads = 60
	for i := 0; i < reads; i++ {
		id := RegionID(1 + i%3)
		seq := uint64(100*(i+1)) + uint64(id) // the region read is seq % 100
		r.eng.After(sim.Duration(i)*350*sim.Nanosecond, func() { r.other.SendFrame(10, read(seq, id)) })
	}
	r.eng.Run()
	torn := 0
	for _, resp := range r.resps[1] {
		id := RegionID(resp.Seq % 100)
		switch {
		case id != 2 && !bytes.Equal(resp.Data, held(id)):
			t.Fatalf("read %d of region %d changed by a WRITE to region 2", resp.Seq/100, id)
		case id == 2 && !bytes.Equal(resp.Data, held(2)) && !bytes.Equal(resp.Data, newData):
			torn++
		}
	}
	t.Logf("%d of %d answers torn", torn, len(r.resps[1]))
	if len(r.resps[1]) != reads || torn == 0 {
		t.Fatalf("%d answers, %d of region 2 torn: no read landed inside the settling window", len(r.resps[1]), torn)
	}
}

// TestRangeAccountingIsPerRegion: the default deployment's registers
// (3 replicas, each the broadcaster of one CTBcast group of 3 members with a
// tail of 128 registers of 208 bytes) allocated as one range per member and
// group, as AllocateRegions does, and one record per register, answer
// AllocatedBytes, BytesOwnedBy, CommittedBytes and RegionCount alike, before
// and after a writer's first WRITE, and read alike.
func TestRangeAccountingIsPerRegion(t *testing.T) {
	const replicas, tail, size = 3, 128, 208
	ranged, perRegion := newRig(t), newRig(t)
	for g := 0; g < replicas; g++ {
		for m := 0; m < replicas; m++ {
			first := RegionID((g*replicas + m) * tail)
			ranged.node.AllocateRange(first, tail, ids.ID(m), size)
			for s := 0; s < tail; s++ {
				perRegion.node.Allocate(first+RegionID(s), ids.ID(m), size)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		a, b := ranged.node, perRegion.node
		if a.AllocatedBytes != b.AllocatedBytes || a.RegionCount() != b.RegionCount() || a.RegionCount() != replicas*replicas*tail {
			t.Fatalf("%s: %d bytes in %d regions, per region %d in %d", when,
				a.AllocatedBytes, a.RegionCount(), b.AllocatedBytes, b.RegionCount())
		}
		for m := ids.ID(0); m < replicas; m++ {
			if a.BytesOwnedBy(m) != b.BytesOwnedBy(m) || a.CommittedBytes(m) != b.CommittedBytes(m) {
				t.Fatalf("%s: p%d owns %d and commits %d bytes, per region %d and %d", when, m,
					a.BytesOwnedBy(m), a.CommittedBytes(m), b.BytesOwnedBy(m), b.CommittedBytes(m))
			}
		}
	}
	check("at set-up")
	// p0 writes the last register of group 2's tail.
	id := RegionID((2*replicas+1)*tail - 1)
	for _, r := range []*rig{ranged, perRegion} {
		r.owner.SendFrame(10, write(1, id, 200, []byte("tail-end")))
		r.other.SendFrame(10, read(2, id))
		r.eng.Run()
	}
	check("after p0's first WRITE")
	if a, b := ranged.last(1), perRegion.last(1); a.Status != StatusOK || !bytes.Equal(a.Data, b.Data) {
		t.Fatalf("region %d reads %q, per region %q", id, a.Data, b.Data)
	}
}

// TestRecycledCompletionReadsZeros: a READ of a region never written,
// answered in a completion frame that carried another region's bytes before
// its reader released it, reads as zeros.
func TestRecycledCompletionReadsZeros(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	node := New(router.New(net.AddNode(10, "mem")))
	client := router.New(net.AddNode(0, "client"))
	var frames [][]byte
	client.RegisterFrame(router.ChanMemResp, func(_ ids.ID, frame []byte) { frames = append(frames, frame) })
	node.Allocate(1, 0, 48)
	node.Allocate(2, 1, 48) // owner 1 never writes: its span stays uncommitted
	client.SendFrame(10, write(1, 1, 0, bytes.Repeat([]byte{0xFF}, 48)))
	client.SendFrame(10, read(2, 1))
	eng.Run()
	router.Release(frames[1])
	client.SendFrame(10, read(3, 2))
	eng.Run()
	got, err := DecodeResponse(frames[2][1:])
	switch {
	case &frames[2][0] != &frames[1][0]:
		t.Fatal("the completion was not answered in the released frame")
	case err != nil || got.Status != StatusOK || got.Seq != 3 || !bytes.Equal(got.Data, make([]byte, 48)):
		t.Fatalf("read of an unwritten region from a recycled frame: %+v %v, want 48 zero bytes", got, err)
	}
}

// TestReusedRequestFrameEqualsFresh: a request encoded into a frame that
// held another request, numbered and with its data window filled, is byte
// for byte what a fresh encoding makes.
func TestReusedRequestFrameEqualsFresh(t *testing.T) {
	old := write(7, 3, 0, bytes.Repeat([]byte{0xEE}, 24))
	again, data := EncodeWrite(old, 5, 0, 24)
	fresh, _ := EncodeWrite(nil, 5, 0, 24)
	if &again[0] != &old[0] || !bytes.Equal(again, fresh) || !bytes.Equal(data, make([]byte, 24)) {
		t.Fatalf("reused WRITE frame\n%x\nfresh\n%x", again, fresh)
	}
	rd := EncodeRead(again, 5)
	if &rd[0] != &old[0] || !bytes.Equal(rd, EncodeRead(nil, 5)) {
		t.Fatalf("reused READ frame %x, fresh %x", rd, EncodeRead(nil, 5))
	}
}
