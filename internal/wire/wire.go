// Package wire implements the binary encoding used by every protocol
// message in the reproduction. Messages really are serialized to bytes and
// parsed back on delivery: payload sizes are honest (they drive the
// network's per-byte latency), and Byzantine test harnesses can corrupt
// encodings at the byte level to exercise decoder hardening.
//
// The format is little-endian with unsigned varints for lengths, no
// reflection, and sticky-error readers: decoders validate bounds on every
// read and never panic on malformed input.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when a decoder runs past the end of its buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrOversized is returned when a length prefix exceeds sane bounds.
var ErrOversized = errors.New("wire: oversized field")

// MaxFieldLen bounds any single length-prefixed field. Byzantine senders
// cannot make a correct process allocate unbounded memory (finite-memory is
// a core claim of the paper, so the codec enforces it too).
const MaxFieldLen = 1 << 24

// Writer builds an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// WriterOn returns a writer that appends to dst, so an encoding can land in a
// caller's buffer: Finish returns dst extended.
func WriterOn(dst []byte) Writer { return Writer{buf: dst} }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Finish returns the encoded bytes. The writer must not be reused after.
func (w *Writer) Finish() []byte { return w.buf }

// Grow ensures capacity for at least n more bytes, so a sequence of appends
// encoding one message performs at most one allocation.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	nb := make([]byte, len(w.buf), len(w.buf)+n)
	copy(nb, w.buf)
	w.buf = nb
}

// slabBlock is the size of the blocks a Slab carves frames from. A frame
// larger than a quarter of it gets an allocation of its own, so a block
// wastes at most a quarter of its bytes.
const slabBlock = 4096

// Slab carves frames that are never written once sent out of blocks it owns,
// so such frames cost one allocation per block, not one each. The zero value
// is ready to use. A carved frame has cap == len, so an append to it
// reallocates instead of writing into the next frame of the block; a block
// goes to the garbage collector once no view of any frame carved from it is
// left. A Slab is not safe for concurrent use.
//
// Keep one Slab per writer (a ring sender, a client, the free list's misses),
// not one per host: the frames of one block then share a lifetime, and a
// frame someone keeps pins only its writer's other frames.
type Slab struct {
	rest []byte // the current block's uncarved bytes
}

// Take returns a zeroed frame of length n, cap n, carved from the current
// block, or from a new block when the current one's rest is too short.
func (s *Slab) Take(n int) []byte {
	if n > slabBlock/4 {
		return make([]byte, n)
	}
	return Carve(&s.rest, n, slabBlock)
}

// Carve returns the first n elements of *rest, capped at n so that an
// append to them reallocates instead of running into the next carving, and
// advances *rest past them. When *rest is short it first becomes a new
// array of max(n, per) elements, so n records cost one allocation per block.
func Carve[S ~[]E, E any](rest *S, n, per int) S {
	if len(*rest) < n {
		*rest = make(S, max(n, per))
	}
	s := (*rest)[:n:n]
	*rest = (*rest)[n:]
	return s
}

// FreeList keeps released records for reuse: Get returns the record last
// put back, or nil when there is none, and Put keeps one. What survives a
// reuse (a bound callback, kept storage) is the record type's own rule: its
// owner clears the rest before Put or after Get.
type FreeList[V any] []*V

// Get returns a kept record, or nil if there is none.
func (fl *FreeList[V]) Get() *V {
	n := len(*fl)
	if n == 0 {
		return nil
	}
	v := (*fl)[n-1]
	*fl = (*fl)[:n-1]
	return v
}

// Put keeps v for a later Get.
func (fl *FreeList[V]) Put(v *V) { *fl = append(*fl, v) }

// GetWriter returns NewWriter(n). It and PutWriter remain only for the
// benchmark's wire rig; protocol code encodes into a buffer its owner keeps
// (WriterOn).
func GetWriter(n int) *Writer { return NewWriter(n) }

// PutWriter does nothing: see GetWriter.
func PutWriter(*Writer) {}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// UvarintLen returns how many bytes Uvarint appends for v.
func UvarintLen(v uint64) int {
	size := 1
	for ; v >= 0x80; v >>= 7 {
		size++
	}
	return size
}

// BytesLen returns how many bytes Bytes appends for a slice of n bytes: the
// varint length prefix and the bytes themselves.
func BytesLen(n int) int { return UvarintLen(uint64(n)) + n }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends bytes with no prefix (fixed-size fields).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes an encoded message with a sticky error.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns nil if the buffer was fully and cleanly consumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n] // capped: an append to a view reallocates
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a boolean byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a length-prefixed byte slice. The returned slice is a COPY:
// decoded messages never alias network buffers, so a Byzantine sender
// cannot mutate data after delivery.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxFieldLen {
		r.err = ErrOversized
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// BytesView reads a length-prefixed byte slice WITHOUT copying: the
// returned slice aliases the reader's underlying buffer, capped at the
// field's end so an append to it reallocates instead of writing into the
// bytes that follow.
//
// Borrow rules: use it only where the buffer's lifetime dominates the
// value's, and never write through a view. A delivered frame is immutable
// once sent and never recycled, so views into it stay valid indefinitely —
// but they are shared: a ring frame is one slice read by the sender's
// mirror, every receiver and the broadcaster's self-delivery. Buffers their
// owner reuses must be decoded with the copying Bytes instead (or the caller
// must copy before the buffer is reused). Byzantine-facing boundaries that
// must not alias sender-reachable memory keep using Bytes.
func (r *Reader) BytesView() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxFieldLen {
		r.err = ErrOversized
		return nil
	}
	return r.take(int(n))
}

// RawView reads n bytes with no prefix WITHOUT copying. The same borrow
// rules as BytesView apply.
func (r *Reader) RawView(n int) []byte { return r.take(n) }

// Offset returns how many bytes have been read so far: a mark for SpanView.
func (r *Reader) Offset() int { return r.off }

// SpanView returns the bytes read since from, an earlier Offset, WITHOUT
// copying: a field decoded piece by piece, kept whole in its encoding. The
// same borrow rules as BytesView apply. It returns nil after an error.
func (r *Reader) SpanView(from int) []byte {
	if r.err != nil || from < 0 || from > r.off {
		return nil
	}
	return r.buf[from:r.off:r.off]
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > MaxFieldLen {
		r.err = ErrOversized
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

// Raw reads n bytes with no prefix (fixed-size fields). Returns a copy.
func (r *Reader) Raw(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
