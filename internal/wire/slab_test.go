package wire

import (
	"testing"
	"unsafe"
)

// TestGrowPreservesContent verifies Grow never loses already-written bytes.
func TestGrowPreservesContent(t *testing.T) {
	w := NewWriter(4)
	w.U32(0xDEADBEEF)
	w.Grow(1024)
	w.U32(0xCAFEBABE)
	r := NewReader(w.Finish())
	if r.U32() != 0xDEADBEEF || r.U32() != 0xCAFEBABE {
		t.Fatal("grow corrupted content")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestViewsAliasReader documents the borrow-mode contract: views alias the
// reader's buffer (no defensive copy), while Bytes/Raw detach.
func TestViewsAliasReader(t *testing.T) {
	buf := NewWriter(32)
	buf.Bytes([]byte{1, 2, 3})
	data := buf.Finish()

	rView := NewReader(data)
	v := rView.BytesView()
	data[1] = 9 // mutate the underlying buffer (offset 1 = first payload byte)
	if v[0] != 9 {
		t.Fatal("BytesView did not alias the buffer")
	}

	data[1] = 1
	rCopy := NewReader(data)
	c := rCopy.Bytes()
	data[1] = 7
	if c[0] != 1 {
		t.Fatal("Bytes did not detach from the buffer")
	}
}

// TestSlabCarvesCappedFrames: Take carves consecutive frames of one block,
// each ending at its own last byte (an append reallocates and leaves the next
// frame as it was), starts a new block only when the rest is too short, and
// gives a frame larger than a quarter of a block an allocation of its own.
func TestSlabCarvesCappedFrames(t *testing.T) {
	var s Slab
	a, b := s.Take(100), s.Take(100)
	if len(a) != 100 || cap(a) != 100 || len(b) != 100 || cap(b) != 100 {
		t.Fatalf("carved len/cap %d/%d and %d/%d, want 100/100", len(a), cap(a), len(b), cap(b))
	}
	if !follows(a, b) {
		t.Fatal("consecutive frames are not carved from one block")
	}
	_ = append(a, 0xEE)
	if b[0] != 0 {
		t.Fatal("an append to a carved frame wrote into the next one")
	}
	if big := s.Take(slabBlock/4 + 1); len(big) != slabBlock/4+1 || cap(big) != len(big) {
		t.Fatalf("a large frame is len %d cap %d", len(big), cap(big))
	}
	if c := s.Take(100); !follows(b, c) {
		t.Fatal("a large frame took the block's rest")
	}
	// 64-byte frames: 64 to a block, so a run of 128 allocates two blocks.
	if avg := testing.AllocsPerRun(50, func() {
		for range 128 {
			s.Take(64)
		}
	}); avg > 2 {
		t.Fatalf("128 carved frames cost %.0f allocations, want at most 2", avg)
	}
}

// follows reports whether b starts at the byte right after a's last.
func follows(a, b []byte) bool {
	return unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), len(a)) == unsafe.Pointer(unsafe.SliceData(b))
}

// TestCarveAndFreeList: Carve hands out capped runs of one array of per
// records and starts a new array, of max(n, per) records, only when the rest
// is short; a FreeList gives back the record last put, then nil.
func TestCarveAndFreeList(t *testing.T) {
	var rest []int64
	a := Carve(&rest, 3, 8)
	b := Carve(&rest, 5, 8)
	if len(a) != 3 || cap(a) != 3 || len(b) != 5 || cap(b) != 5 ||
		unsafe.Add(unsafe.Pointer(&a[2]), 8) != unsafe.Pointer(&b[0]) {
		t.Fatalf("carved len/cap %d/%d and %d/%d, not consecutive runs of one array", len(a), cap(a), len(b), cap(b))
	}
	if c := Carve(&rest, 10, 8); len(c) != 10 || cap(c) != 10 || len(rest) != 0 {
		t.Fatalf("a run longer than a block is len %d cap %d, %d left", len(c), cap(c), len(rest))
	}
	if avg := testing.AllocsPerRun(50, func() {
		for range 32 {
			Carve(&rest, 1, 16)
		}
	}); avg > 2 {
		t.Fatalf("32 carved records cost %.0f allocations, want at most 2", avg)
	}

	var fl FreeList[int64]
	x, y := new(int64), new(int64)
	fl.Put(x)
	fl.Put(y)
	if fl.Get() != y || fl.Get() != x || fl.Get() != nil {
		t.Fatal("a free list does not give back the record last put, then nil")
	}
}
