package consensus

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ids"
)

// TestBatchSubsNeverRewritten: a replica carves decoded sub-requests and the
// leader's containers from blocks it owns (subs, encodeBatch). Over more
// containers than one block holds, every container still held reads back
// the requests it was made from, each carved slice has cap == len, and an
// append to one (what a careless holder might do) reallocates instead of
// writing into the next container's sub-requests.
func TestBatchSubsNeverRewritten(t *testing.T) {
	r := &Replica{}
	const containers = 4 * subsBlock
	var (
		held []Request
		want [][]Request
	)
	for i := 0; i < containers; i++ {
		reqs := make([]Request, 1+i%5)
		for j := range reqs {
			reqs[j] = Request{Client: ids.ID(200 + j), Num: uint64(i), Payload: []byte(fmt.Sprintf("op %d.%d", i, j))}
		}
		c := encodeBatch(&r.batchSlab, reqs)
		if cap(c.Payload) != len(c.Payload) {
			t.Fatalf("container %d: payload cap %d, len %d", i, cap(c.Payload), len(c.Payload))
		}
		if !bytes.Equal(c.Payload, EncodeBatch(reqs).Payload) {
			t.Fatalf("container %d: carved encoding differs from EncodeBatch's", i)
		}
		subs := r.subs(&c)
		if len(subs) != len(reqs) || cap(subs) != len(subs) {
			t.Fatalf("container %d: %d sub-requests, cap %d, want %d and cap == len", i, len(subs), cap(subs), len(reqs))
		}
		_ = append(subs, Request{Client: 666, Payload: []byte("scribble")})
		_ = append(c.Payload, 0xFF)
		held = append(held, c)
		want = append(want, reqs)
	}
	for i := range held {
		subs := held[i].subs
		for j, q := range want[i] {
			if subs[j].Client != q.Client || subs[j].Num != q.Num || !bytes.Equal(subs[j].Payload, q.Payload) {
				t.Fatalf("container %d sub-request %d reads %+v, was made from %+v", i, j, subs[j], q)
			}
		}
		if again, err := DecodeBatch(held[i]); err != nil || len(again) != len(want[i]) {
			t.Fatalf("container %d no longer decodes to its %d requests: %d, %v", i, len(want[i]), len(again), err)
		}
	}
}
