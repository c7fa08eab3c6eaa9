// Package pool is a poolsafety-pass fixture: stores and uncopied returns
// of BytesView/RawView/SpanView borrows are flagged, the caller-owned decode
// borrow and the copied return are accepted, and a read of a frame after
// router.Release is caught.
package pool

import (
	"repro/internal/router"
	"repro/internal/wire"
)

type holder struct{ view []byte }

var global []byte

func frame() []byte { return []byte{1, 2, 3, 4} }

// Leaks stores pool-backed views into state that outlives the buffer.
func Leaks(h *holder, m map[int][]byte) []byte {
	r := wire.NewReader(frame())
	v := r.BytesView()
	h.view = v           // want "stored into field"
	m[1] = r.BytesView() // want "stored into map/slice element"
	global = v           // want "stored in package-level variable"
	return v             // want "returned without copy"
}

// SpanLeaks keeps a span of pool-backed bytes past the buffer's life.
func SpanLeaks(h *holder) []byte {
	r := wire.NewReader(frame())
	from := r.Offset()
	r.U64()
	h.view = r.SpanView(from) // want "stored into field"
	return r.SpanView(from)   // want "returned without copy"
}

// Span returns a span of the caller's own bytes: the decode borrow again —
// accepted.
func Span(req []byte) []byte {
	rd := wire.NewReader(req)
	from := rd.Offset()
	rd.U64()
	return rd.SpanView(from)
}

// Key is the sanctioned decode borrow: rd wraps the caller's own bytes,
// so returning a view extends no lifetime — accepted.
func Key(req []byte) []byte {
	rd := wire.NewReader(req)
	rd.U8()
	return rd.BytesView()
}

// Copied returns go through append — accepted.
func Copied() []byte {
	r := wire.NewReader(frame())
	return append([]byte(nil), r.BytesView()...)
}

// Retain keeps a view in a struct under a waiver: the fixture's buffers
// are never recycled, mirroring the ctbcast delivery-path contract.
func Retain(h *holder) {
	r := wire.NewReader(frame())
	//ubft:poolsafety fixture specimen: this buffer is never recycled
	h.view = r.BytesView()
}

// ReadAfterRelease reads a frame the free list may have handed out again.
func ReadAfterRelease() byte {
	f := router.Frame(4)
	router.Release(f)
	return f[0] // want "read after router.Release"
}

// ReleaseWhenDone releases on an early return and after the last read, and
// reads only the frame taken anew — accepted.
func ReleaseWhenDone(bad bool) byte {
	f := router.Frame(4)
	if bad {
		router.Release(f)
		return 0
	}
	b := f[0]
	router.Release(f)
	f = router.Frame(4)
	defer router.Release(f)
	return b + f[0]
}

// ReleaseOnOneBranch releases in one branch of an if and of a switch and
// reads in the others — accepted.
func ReleaseOnOneBranch(bad bool, n int) byte {
	f := router.Frame(4)
	if bad {
		router.Release(f)
	} else {
		b := f[0]
		router.Release(f)
		return b
	}
	g := router.Frame(4)
	switch n {
	case 0:
		router.Release(g)
	case 1:
		return g[0]
	default:
		return g[1]
	}
	return 0
}

// ReadAfterBranch reads a frame after the if that released it on one branch.
func ReadAfterBranch(bad bool) byte {
	f := router.Frame(4)
	if bad {
		router.Release(f)
	} else {
		_ = f[0]
	}
	return f[1] // want "read after router.Release"
}
