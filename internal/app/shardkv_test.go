package app

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestKeyedRequestKeys checks the Router capability of both dialects
// through one table: every single-key command yields its key, multi-key
// commands yield all of theirs (values skipped), and malformed, unknown and
// envelope requests are unroutable.
func TestKeyedRequestKeys(t *testing.T) {
	key := []byte("some-key-0123456")
	for _, c := range keyedCodecs() {
		t.Run(c.name, func(t *testing.T) {
			router := c.mk()
			var single [][]byte
			for _, enc := range c.keyOps {
				single = append(single, enc(key))
			}
			for _, enc := range c.valOps {
				single = append(single, enc(key, []byte("value")))
			}
			for _, req := range single {
				keys, err := router.AppendKeys(nil, req)
				if err != nil || len(keys) != 1 || !bytes.Equal(keys[0], key) {
					t.Fatalf("opcode %d: keys=%q err=%v", req[0], keys, err)
				}
			}
			keys, err := router.AppendKeys(nil, c.mget([]byte("a"), []byte("b"), []byte("c")))
			if err != nil || len(keys) != 3 || !bytes.Equal(keys[1], []byte("b")) || !bytes.Equal(keys[2], []byte("c")) {
				t.Fatalf("multi-get keys=%q err=%v", keys, err)
			}
			// An empty multi-get is valid (Apply accepts it) and key-less.
			keys, err = router.AppendKeys(nil, c.mget())
			if err != nil || len(keys) != 0 {
				t.Fatalf("empty multi-get: keys=%q err=%v", keys, err)
			}
			// Multi-set keys are extracted (values skipped), so single-shard
			// multi-sets route normally.
			keys, err = router.AppendKeys(nil, c.mset(Pair{Key: []byte("x"), Val: []byte("1")}, Pair{Key: []byte("y"), Val: []byte("2")}))
			if err != nil || len(keys) != 2 || !bytes.Equal(keys[0], []byte("x")) || !bytes.Equal(keys[1], []byte("y")) {
				t.Fatalf("multi-set keys=%q err=%v", keys, err)
			}
			mgetOp := c.mget()[0]
			for _, req := range [][]byte{nil, {99, 1, 2}, {c.keyOps[0](key)[0]}, {mgetOp}, {mgetOp, 0xFF}} {
				if _, err := router.AppendKeys(nil, req); !errors.Is(err, ErrNoKey) {
					t.Fatalf("request %v routable (err=%v)", req, err)
				}
			}
		})
	}
	// The generic transaction envelope is unroutable by design: its
	// commands are addressed to explicit groups by the 2PC coordinator and
	// must never enter the hash router.
	for _, req := range [][]byte{EncodeTxnPrepare(nil, 1, 0, nil), EncodeTxnCommit(nil, 1), EncodeTxnAbort(nil, 1), EncodeTxnDecide(nil, 1, true)} {
		for _, router := range []Router{NewRKV(), NewKV(0), NewOrderBook()} {
			if _, err := router.AppendKeys(nil, req); err == nil {
				t.Fatalf("opcode %d routable; 2PC internals must not enter the hash router", req[0])
			}
		}
	}
}

func TestShardOfKeyStableAndSpread(t *testing.T) {
	// Stable: the same key always maps to the same shard.
	k := []byte("stable-key")
	if ShardOfKey(k, 8) != ShardOfKey(k, 8) {
		t.Fatal("ShardOfKey not deterministic")
	}
	if ShardOfKey(k, 1) != 0 || ShardOfKey(k, 0) != 0 {
		t.Fatal("degenerate shard counts must map to 0")
	}
	// Spread: random keys hit every one of 8 partitions.
	rng := rand.New(rand.NewSource(1))
	seen := map[int]int{}
	for i := 0; i < 1024; i++ {
		key := make([]byte, 16)
		rng.Read(key)
		s := ShardOfKey(key, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("shard %d out of range", s)
		}
		seen[s]++
	}
	if len(seen) != 8 {
		t.Fatalf("1024 random keys hit only %d of 8 shards: %v", len(seen), seen)
	}
}
