package ctbcast

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestFallbackRecordRecycledFresh: under FastWithFallback the broadcaster
// keeps, per identifier in flight, a record with a view of the message inside
// its LOCK ring frame (Broadcast copies nothing, so the caller may reuse its
// buffer at once). The record goes back to the group when the identifier
// delivers on the fast path or its deadline signs it, and the next
// identifier gets it back equal to a new record, its bound callback aside.
func TestFallbackRecordRecycledFresh(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastWithFallback, slowDelay: 50 * sim.Microsecond})
	defer h.stopAll()
	g := h.groups[0]
	fresh := fallback{g: g}

	buf := []byte("first")
	g.Broadcast(buf)
	fb := g.fallbacks[1]
	v := reflect.ValueOf(*fb)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fallback.%s not filled by the broadcast", v.Type().Field(i).Name)
		}
	}
	copy(buf, "XXXXX") // the caller reuses its buffer
	h.run(5 * sim.Millisecond)
	if len(g.fallbacks) != 0 || len(g.fallbackFree) != 1 || g.fallbackFree[0] != fb {
		t.Fatalf("after a fast-path delivery: %d records in flight, %d kept", len(g.fallbacks), len(g.fallbackFree))
	}
	if !reflect.DeepEqual(*fb, fresh) {
		t.Fatalf("released record %+v, a new one is %+v", *fb, fresh)
	}

	// The fast path stalls: the record's deadline signs the view it keeps.
	h.net.Partition(2, 0)
	h.net.Partition(2, 1)
	second := []byte("second")
	g.Broadcast(second)
	if g.fallbacks[2] != fb {
		t.Fatal("the next identifier did not take the released record")
	}
	copy(second, "XXXXXX")
	h.run(5 * sim.Millisecond)
	for _, i := range []int{0, 1} {
		if got := fmt.Sprint(h.got[i]); got != "[{1 first} {2 second}]" || h.groups[i].SlowDeliveries != 1 {
			t.Fatalf("member %d delivered %s, %d on the slow path", i, got, h.groups[i].SlowDeliveries)
		}
	}
	if len(g.fallbacks) != 0 || len(g.fallbackFree) != 1 {
		t.Fatalf("after the slow path: %d records in flight, %d kept", len(g.fallbacks), len(g.fallbackFree))
	}
}

// TestQueuedBroadcastsCopiedAndQueueKept: a message that must wait behind a
// summary is copied into the queue (the caller reuses its buffer), and the
// queue keeps its backing array as it drains.
func TestQueuedBroadcastsCopiedAndQueueKept(t *testing.T) {
	h := newHarness(t, hopts{f: 1, mode: FastOnly, tail: 4})
	defer h.stopAll()
	g := h.groups[0]
	const total = 20
	buf := make([]byte, 3)
	for i := 0; i < total; i++ {
		copy(buf, fmt.Sprintf("m%02d", i))
		g.Broadcast(buf)
	}
	queued := cap(g.sendQ)
	h.run(50 * sim.Millisecond)
	for member, got := range h.got {
		if len(got) != total {
			t.Fatalf("member %d delivered %d/%d", member, len(got), total)
		}
		for i, d := range got {
			if d.m != fmt.Sprintf("m%02d", i) {
				t.Fatalf("member %d: message %d reads %q", member, i, d.m)
			}
		}
	}
	if len(g.sendQ) != 0 || cap(g.sendQ) != queued {
		t.Fatalf("drained queue: len %d cap %d, the queue's array had cap %d", len(g.sendQ), cap(g.sendQ), queued)
	}
}
