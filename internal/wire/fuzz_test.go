package wire

import (
	"bytes"
	"testing"
)

// FuzzReader feeds arbitrary bytes through a decode sequence exercising
// every read primitive — including the zero-copy views — and asserts the
// codec's hardening invariants: no panics, sticky errors, and view/copy
// agreement on whatever does decode.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// A well-formed frame: u8, u64, length-prefixed bytes, raw tail.
	w := NewWriter(64)
	w.U8(7)
	w.U64(1 << 40)
	w.Bytes([]byte("payload"))
	w.Raw([]byte{9, 9, 9, 9})
	f.Add(w.Finish())
	// Oversized length prefix.
	w2 := NewWriter(16)
	w2.Uvarint(1 << 60)
	f.Add(w2.Finish())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Two independent readers decode the same bytes, one with copying
		// reads and one with borrow-mode views: they must agree bite for
		// bite, and neither may panic on malformed input.
		rc := NewReader(data)
		rv := NewReader(data)
		if a, b := rc.U8(), rv.U8(); a != b {
			t.Fatalf("U8 mismatch: %d vs %d", a, b)
		}
		if a, b := rc.U64(), rv.U64(); a != b {
			t.Fatalf("U64 mismatch: %d vs %d", a, b)
		}
		bc, bv := rc.Bytes(), rv.BytesView()
		if !bytes.Equal(bc, bv) {
			t.Fatalf("Bytes/BytesView mismatch: %x vs %x", bc, bv)
		}
		// The copy must be detached from the input: mutating it cannot
		// change what the view observes (aliasing direction check).
		if len(bc) > 0 {
			bc[0]++
			if bytes.Equal(bc, bv) {
				t.Fatal("Bytes returned an aliasing slice")
			}
		}
		rc.Raw(4)
		rv.RawView(4)
		if (rc.Err() == nil) != (rv.Err() == nil) {
			t.Fatalf("error divergence: %v vs %v", rc.Err(), rv.Err())
		}
		if (rc.Done() == nil) != (rv.Done() == nil) {
			t.Fatalf("done divergence: %v vs %v", rc.Done(), rv.Done())
		}
	})
}

// FuzzRoundTrip encodes the fuzzed fields and asserts an exact decode.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), []byte(nil), "")
	f.Add(uint64(1<<63), []byte{1, 2, 3}, "hello")
	f.Fuzz(func(t *testing.T, u uint64, b []byte, s string) {
		w := NewWriter(32 + len(b) + len(s))
		w.Uvarint(u)
		w.Bytes(b)
		w.String(s)
		w.Bool(true)
		r := NewReader(w.Finish())
		if got := r.Uvarint(); got != u {
			t.Fatalf("uvarint: %d != %d", got, u)
		}
		if got := r.BytesView(); !bytes.Equal(got, b) {
			t.Fatalf("bytes: %x != %x", got, b)
		}
		if got := r.String(); got != s {
			t.Fatalf("string: %q != %q", got, s)
		}
		if !r.Bool() {
			t.Fatal("bool lost")
		}
		if err := r.Done(); err != nil {
			t.Fatalf("trailing state: %v", err)
		}
	})
}
