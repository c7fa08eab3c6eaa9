package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0102030405060708)
	w.I64(-42)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(300)
	buf := w.Finish()

	r := NewReader(buf)
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("U16 = %x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 0x0102030405060708 {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestRoundTripBytesAndString(t *testing.T) {
	w := NewWriter(0)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.String("hello")
	w.String("")
	w.Raw([]byte{9, 9})
	buf := w.Finish()

	r := NewReader(buf)
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if got := r.Raw(2); !bytes.Equal(got, []byte{9, 9}) {
		t.Fatalf("Raw = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestBytesReturnsCopy(t *testing.T) {
	w := NewWriter(0)
	w.Bytes([]byte{1, 2, 3})
	buf := w.Finish()
	r := NewReader(buf)
	got := r.Bytes()
	got[0] = 99
	r2 := NewReader(buf)
	if again := r2.Bytes(); again[0] != 1 {
		t.Fatal("Bytes aliases the input buffer")
	}
}

// TestViewsCannotWriteIntoTheirBuffer: a frame is shared by every reader
// once sent, so appending to a view of one field must reallocate, never
// overwrite the bytes that follow it in the frame.
func TestViewsCannotWriteIntoTheirBuffer(t *testing.T) {
	w := NewWriter(0)
	w.Bytes([]byte{1, 2, 3})
	w.Raw([]byte{4, 5})
	w.Bytes([]byte{6})
	buf := w.Finish()
	orig := bytes.Clone(buf)

	r := NewReader(buf)
	bv := r.BytesView()
	from := r.Offset()
	rv := r.RawView(2)
	sv := r.SpanView(from)
	if r.BytesView() == nil || r.Done() != nil || !bytes.Equal(sv, []byte{4, 5}) {
		t.Fatalf("decode failed: %v, span % x", r.Err(), sv)
	}
	if cap(bv) != len(bv) || cap(rv) != len(rv) || cap(sv) != len(sv) {
		t.Fatalf("views not capped: BytesView len %d cap %d, RawView len %d cap %d, SpanView len %d cap %d",
			len(bv), cap(bv), len(rv), cap(rv), len(sv), cap(sv))
	}
	_ = append(bv, 0xEE, 0xEE, 0xEE)
	_ = append(rv, 0xEE, 0xEE)
	_ = append(sv, 0xEE, 0xEE)
	if !bytes.Equal(buf, orig) {
		t.Fatalf("an append to a view wrote into the frame: % x, was % x", buf, orig)
	}
}

func TestBytesLen(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 21} {
		w := NewWriter(0)
		w.Bytes(make([]byte, n))
		if got := BytesLen(n); got != w.Len() {
			t.Fatalf("BytesLen(%d) = %d, Bytes appended %d", n, got, w.Len())
		}
	}
}

func TestTruncatedReads(t *testing.T) {
	cases := []func(r *Reader){
		func(r *Reader) { r.U8() },
		func(r *Reader) { r.U16() },
		func(r *Reader) { r.U32() },
		func(r *Reader) { r.U64() },
		func(r *Reader) { r.Uvarint() },
		func(r *Reader) { r.Bytes() },
		func(r *Reader) { _ = r.String() },
		func(r *Reader) { r.Raw(1) },
	}
	for i, read := range cases {
		r := NewReader(nil)
		read(r)
		if r.Err() == nil {
			t.Errorf("case %d: no error on empty buffer", i)
		}
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	r.U64() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Later reads must not succeed or panic.
	if got := r.U8(); got != 0 {
		t.Fatalf("read after error returned %d", got)
	}
	if r.Bytes() != nil {
		t.Fatal("Bytes after error should be nil")
	}
}

func TestTruncatedLengthPrefix(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1000) // claims 1000 bytes, provides none
	r := NewReader(w.Finish())
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("truncated length-prefixed field not rejected")
	}
}

func TestOversizedFieldRejected(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(uint64(MaxFieldLen) + 1)
	r := NewReader(w.Finish())
	if r.Bytes() != nil || r.Err() != ErrOversized {
		t.Fatalf("oversized field not rejected: err=%v", r.Err())
	}
}

func TestDoneDetectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

func TestNegativeRawRejected(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.Raw(-1); got != nil || r.Err() == nil {
		t.Fatal("negative Raw length not rejected")
	}
}

// Property: any (uvarint, bytes, u64) triple round-trips exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint64, b []byte, c uint64, s string) bool {
		w := NewWriter(0)
		w.Uvarint(a)
		w.Bytes(b)
		w.U64(c)
		w.String(s)
		r := NewReader(w.Finish())
		ga := r.Uvarint()
		gb := r.Bytes()
		gc := r.U64()
		gs := r.String()
		return r.Done() == nil && ga == a && bytes.Equal(gb, b) && gc == c && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding random garbage never panics and either errors or
// consumes bounded input.
func TestQuickGarbageNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		r := NewReader(garbage)
		r.U8()
		r.Uvarint()
		r.Bytes()
		r.U64()
		_ = r.String()
		_ = r.Done()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
