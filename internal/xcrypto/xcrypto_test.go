package xcrypto

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/sim"
)

func testProc() (*sim.Engine, *sim.Proc) {
	e := sim.NewEngine(1)
	return e, sim.NewProc(e, "p")
}

func TestXXHash64KnownVectors(t *testing.T) {
	// Vectors from the reference implementation's test suite.
	cases := []struct {
		in   string
		seed uint64
		want uint64
	}{
		{"", 0, 0xef46db3751d8e999},
		{"a", 0, 0xd24ec4f1a98c6e5b},
		{"as", 0, 0x1c330fb2d66be179},
		{"asd", 0, 0x631c37ce72a97393},
		{"asdf", 0, 0x415872f599cea71e},
	}
	for _, c := range cases {
		if got := XXHash64([]byte(c.in), c.seed); got != c.want {
			t.Errorf("XXHash64(%q, %d) = %#x, want %#x", c.in, c.seed, got, c.want)
		}
	}
}

func TestXXHash64LongInputPaths(t *testing.T) {
	// Exercise the 32-byte-block path and each tail-length path; verify
	// determinism and sensitivity rather than external vectors.
	base := make([]byte, 133)
	for i := range base {
		base[i] = byte(i * 7)
	}
	for n := 0; n <= len(base); n++ {
		h1 := XXHash64(base[:n], 0)
		h2 := XXHash64(base[:n], 0)
		if h1 != h2 {
			t.Fatalf("non-deterministic at len %d", n)
		}
		if n > 0 {
			mutated := append([]byte(nil), base[:n]...)
			mutated[n/2] ^= 0x01
			if XXHash64(mutated, 0) == h1 {
				t.Fatalf("single-bit flip not detected at len %d", n)
			}
		}
		if XXHash64(base[:n], 1) == h1 {
			t.Fatalf("seed not mixed in at len %d", n)
		}
	}
}

func TestXXHash64QuickBitFlip(t *testing.T) {
	f := func(data []byte, pos uint16, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		i := int(pos) % len(data)
		h := XXHash64(data, 0)
		data[i] ^= 1 << (bit % 8)
		return XXHash64(data, 0) != h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryDeterministic(t *testing.T) {
	idList := []ProcID{0, 1, 2}
	r1 := NewRegistry(99, idList)
	r2 := NewRegistry(99, idList)
	for _, id := range idList {
		if !bytes.Equal(r1.PublicKey(id), r2.PublicKey(id)) {
			t.Fatalf("registry not deterministic for %v", id)
		}
	}
	r3 := NewRegistry(100, idList)
	if bytes.Equal(r1.PublicKey(0), r3.PublicKey(0)) {
		t.Fatal("different seeds produced same keys")
	}
}

func TestSignVerify(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0, 1})
	_, p := testProc()
	s0 := reg.Signer(0)
	msg := []byte("prepare v=0 s=1")
	sig := s0.Sign(p, msg)
	if !s0.Verify(p, 0, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if s0.Verify(p, 1, msg, sig) {
		t.Fatal("signature attributed to wrong signer accepted")
	}
	if s0.Verify(p, 0, []byte("different"), sig) {
		t.Fatal("signature over different message accepted")
	}
	bad := append(Signature(nil), sig...)
	bad[0] ^= 0xFF
	if s0.Verify(p, 0, msg, bad) {
		t.Fatal("corrupted signature accepted")
	}
	if s0.Verify(p, 99, msg, sig) {
		t.Fatal("unknown signer accepted")
	}
	if s0.Verify(p, 0, msg, sig[:10]) {
		t.Fatal("short signature accepted")
	}
}

func TestSignChargesVirtualTime(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0})
	_, p := testProc()
	s := reg.Signer(0)
	before := p.BusyUntil()
	s.Sign(p, []byte("m"))
	if p.BusyUntil() <= before {
		t.Fatal("Sign charged no virtual time")
	}
	mid := p.BusyUntil()
	s.Verify(p, 0, []byte("m"), s.Sign(p, []byte("m")))
	if p.BusyUntil() <= mid {
		t.Fatal("Verify charged no virtual time")
	}
}

func TestMAC(t *testing.T) {
	_, p := testProc()
	key := []byte("shared-secret")
	msg := []byte("ui request 7")
	k := NewKeyedMAC(key)
	tag := k.MAC(p, msg)
	if !k.Verify(p, msg, tag) {
		t.Fatal("valid MAC rejected")
	}
	if k.Verify(p, []byte("other"), tag) {
		t.Fatal("MAC over other message accepted")
	}
	if NewKeyedMAC([]byte("wrong-key")).Verify(p, msg, tag) {
		t.Fatal("MAC with wrong key accepted")
	}
}

func TestDigest(t *testing.T) {
	_, p := testProc()
	d1 := Digest(p, []byte("m"))
	d2 := Digest(p, []byte("m"))
	d3 := Digest(p, []byte("n"))
	if d1 != d2 {
		t.Fatal("digest not deterministic")
	}
	if d1 == d3 {
		t.Fatal("distinct messages share a digest")
	}
}

func TestSignerUnknownIDPanics(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0})
	defer func() {
		if recover() == nil {
			t.Fatal("Signer for unknown id did not panic")
		}
	}()
	reg.Signer(ids.ID(42))
}
