package swmr

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/memnode"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// rig wires two compute hosts (writer id 0, reader id 1) and 2fm+1 memory
// nodes (ids 10, 11, 12) on one network.
type rig struct {
	eng      *sim.Engine
	net      *simnet.Network
	writer   *Store
	reader   *Store
	memnodes []*memnode.Node
	memIDs   []ids.ID
}

func newRig(t *testing.T, fm int) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	var memIDs []ids.ID
	var mns []*memnode.Node
	for i := 0; i < 2*fm+1; i++ {
		id := ids.ID(10 + i)
		memIDs = append(memIDs, id)
		rt := router.New(net.AddNode(id, fmt.Sprintf("mem%d", i)))
		mns = append(mns, memnode.New(rt))
	}
	writerRT := router.New(net.AddNode(0, "writer"))
	readerRT := router.New(net.AddNode(1, "reader"))
	w := NewStore(writerRT, writerRT.Node().Proc(), memIDs, fm)
	r := NewStore(readerRT, readerRT.Node().Proc(), memIDs, fm)
	return &rig{eng: eng, net: net, writer: w, reader: r, memnodes: mns, memIDs: memIDs}
}

// kept copies a read's result out of its callback, which the value is lent to.
func kept(res ReadResult) ReadResult {
	res.Value = bytes.Clone(res.Value)
	return res
}

func (rg *rig) allocate(region memnode.RegionID, owner ids.ID, valueCap int) {
	for _, mn := range rg.memnodes {
		mn.Allocate(region, owner, RegionSize(valueCap))
	}
}

func TestWriteThenRead(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 64)
	wreg := NewRegister(rg.writer, 1, 64)
	rreg := NewRegister(rg.reader, 1, 64)

	wrote := false
	wreg.Write(7, []byte("value-seven"), func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		wrote = true
	})
	rg.eng.Run()
	if !wrote {
		t.Fatal("write never completed")
	}

	var got ReadResult
	var gotErr error
	done := false
	rreg.Read(func(res ReadResult, err error) { got, gotErr, done = kept(res), err, true })
	rg.eng.Run()
	if !done || gotErr != nil {
		t.Fatalf("read failed: done=%v err=%v", done, gotErr)
	}
	if got.Empty || got.TS != 7 || string(got.Value) != "value-seven" {
		t.Fatalf("read = %+v", got)
	}
}

func TestReadEmptyRegister(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	rreg := NewRegister(rg.reader, 1, 32)
	var got ReadResult
	var gotErr error
	rreg.Read(func(res ReadResult, err error) { got, gotErr = kept(res), err })
	rg.eng.Run()
	if gotErr != nil || !got.Empty {
		t.Fatalf("empty register read: %+v err=%v", got, gotErr)
	}
}

func TestHighestTimestampWins(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	wreg := NewRegister(rg.writer, 1, 32)
	rreg := NewRegister(rg.reader, 1, 32)
	for i := uint64(1); i <= 3; i++ {
		i := i
		wreg.Write(i, []byte(fmt.Sprintf("v%d", i)), func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		})
	}
	rg.eng.Run()
	var got ReadResult
	rreg.Read(func(res ReadResult, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = kept(res)
	})
	rg.eng.Run()
	if got.TS != 3 || string(got.Value) != "v3" {
		t.Fatalf("read = %+v, want ts=3 v3", got)
	}
}

func TestDeltaCooldownBetweenWrites(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	wreg := NewRegister(rg.writer, 1, 32)
	var doneAt []sim.Time
	for i := uint64(1); i <= 3; i++ {
		wreg.Write(i, []byte("x"), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			doneAt = append(doneAt, rg.eng.Now())
		})
	}
	rg.eng.Run()
	if len(doneAt) != 3 {
		t.Fatalf("writes completed: %d", len(doneAt))
	}
	// Consecutive write starts are >= Delta apart; completions inherit that.
	if doneAt[1].Sub(doneAt[0]) < latmodel.Delta/2 || doneAt[2].Sub(doneAt[1]) < latmodel.Delta/2 {
		t.Fatalf("cooldown not enforced: %v", doneAt)
	}
}

func TestWriteSurvivesFmCrashes(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	rg.memnodes[2].Crash()
	wreg := NewRegister(rg.writer, 1, 32)
	rreg := NewRegister(rg.reader, 1, 32)
	ok := false
	wreg.Write(1, []byte("survives"), func(err error) { ok = err == nil })
	rg.eng.Run()
	if !ok {
		t.Fatal("write did not complete with fm crashes")
	}
	var got ReadResult
	rreg.Read(func(res ReadResult, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = kept(res)
	})
	rg.eng.Run()
	if string(got.Value) != "survives" {
		t.Fatalf("read after crash = %+v", got)
	}
}

func TestNonOwnerWriteRejected(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32) // owner is host 0
	// The reader (host 1) tries to write: RDMA permission fault.
	evil := NewRegister(rg.reader, 1, 32)
	var gotErr error
	evil.Write(1, []byte("forged"), func(err error) { gotErr = err })
	rg.eng.Run()
	if gotErr == nil {
		t.Fatal("non-owner write succeeded")
	}
}

func TestReadQuorumIntersectsWrite(t *testing.T) {
	// Write completes at fm+1 nodes; even if a different node crashed, a
	// majority read must still see the value (quorum intersection).
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	wreg := NewRegister(rg.writer, 1, 32)
	rreg := NewRegister(rg.reader, 1, 32)
	wreg.Write(5, []byte("qi"), func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	rg.eng.Run()
	rg.memnodes[0].Crash()
	var got ReadResult
	rreg.Read(func(res ReadResult, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = kept(res)
	})
	rg.eng.Run()
	if got.TS != 5 || string(got.Value) != "qi" {
		t.Fatalf("quorum intersection violated: %+v", got)
	}
}

func TestByzantineEqualTimestamps(t *testing.T) {
	// A Byzantine writer that puts the same timestamp in both sub-registers
	// must be detected. Register.Write does not check timestamps, so two
	// writes with one timestamp land in the two sub-registers (round-robin).
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	wreg := NewRegister(rg.writer, 1, 32)
	n := 0
	wreg.Write(4, []byte("one"), func(error) { n++ })
	wreg.Write(4, []byte("two"), func(error) { n++ })
	rg.eng.Run()
	if n != 2 {
		t.Fatalf("writes incomplete: %d", n)
	}
	rreg := NewRegister(rg.reader, 1, 32)
	var gotErr error
	rreg.Read(func(_ ReadResult, err error) { gotErr = err })
	rg.eng.Run()
	if !errors.Is(gotErr, ErrByzantineWriter) {
		t.Fatalf("equal timestamps not detected as Byzantine: err=%v", gotErr)
	}
}

func TestByzantineBogusChecksums(t *testing.T) {
	// Both sub-registers contain garbage: a fast read must report the
	// writer Byzantine rather than spin forever. The garbage is written as
	// raw sub-register images, bypassing encodeSlot.
	rg := newRig(t, 1)
	rg.allocate(1, 0, 32)
	wreg := NewRegister(rg.writer, 1, 32)
	n := 0
	for range 2 {
		slot := wreg.queueWrite(func(error) { n++ })
		for i := range slot {
			slot[i] = 0xA5
		}
		wreg.pump()
	}
	rg.eng.Run()
	if n != 2 {
		t.Fatalf("raw writes incomplete: %d", n)
	}
	rreg := NewRegister(rg.reader, 1, 32)
	var gotErr error
	rreg.Read(func(_ ReadResult, err error) { gotErr = err })
	rg.eng.Run()
	if !errors.Is(gotErr, ErrByzantineWriter) {
		t.Fatalf("bogus checksums not detected: err=%v", gotErr)
	}
}

func TestTornWriteDetectedByChecksumThenSettles(t *testing.T) {
	// Start a read exactly when a write lands so the torn window is live;
	// regularity demands the read return either the old or the new value,
	// never the torn bytes.
	rg := newRig(t, 1)
	rg.allocate(1, 0, 64)
	wreg := NewRegister(rg.writer, 1, 64)
	rreg := NewRegister(rg.reader, 1, 64)
	wreg.Write(1, []byte("old-value-old-value-old-value"), func(error) {})
	rg.eng.Run()
	wreg.Write(2, []byte("new-value-new-value-new-value"), func(error) {})
	var got ReadResult
	var gotErr error
	rreg.Read(func(res ReadResult, err error) { got, gotErr = kept(res), err })
	rg.eng.Run()
	if gotErr != nil {
		t.Fatalf("read: %v", gotErr)
	}
	s := string(got.Value)
	if s != "old-value-old-value-old-value" && s != "new-value-new-value-new-value" {
		t.Fatalf("regularity violated: read %q", s)
	}
}

func TestValueCapacityEnforced(t *testing.T) {
	rg := newRig(t, 1)
	rg.allocate(1, 0, 8)
	wreg := NewRegister(rg.writer, 1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized write did not panic")
		}
	}()
	wreg.Write(1, make([]byte, 9), func(error) {})
}

func TestStoreRequiresQuorumConfig(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	rt := router.New(net.AddNode(0, "h"))
	// Any pool in [fm+1, 2fm+1] preserves quorum intersection; 2 nodes at
	// fm=1 is the lean wall-clock deployment and must be accepted.
	NewStore(rt, rt.Node().Proc(), []ids.ID{1, 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("bad memnode count did not panic")
		}
	}()
	// fm+1 = 2 is the floor: a single node cannot form intersecting quorums.
	NewStore(rt, rt.Node().Proc(), []ids.ID{1}, 1)
}

func TestRegionSizes(t *testing.T) {
	if SlotSize(32) != 52 {
		t.Fatalf("SlotSize(32) = %d", SlotSize(32))
	}
	if RegionSize(32) != 104 {
		t.Fatalf("RegionSize(32) = %d", RegionSize(32))
	}
}
