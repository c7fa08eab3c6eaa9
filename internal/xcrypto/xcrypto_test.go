package xcrypto

import (
	"bytes"
	"encoding/hex"
	"sync"
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

// TestSignChargesVirtualTime also holds a reused verdict to the virtual cost
// of a computed one, and to no allocation. The signature comes from a twin
// Registry (same seed, same keys, its own table), so the Registry under test
// meets it first at its first check.
func TestSignChargesVirtualTime(t *testing.T) {
	reg, twin := NewRegistry(1, []ProcID{0}), NewRegistry(1, []ProcID{0})
	_, p := testProc()
	s := reg.Signer(0)
	before := p.BusyUntil()
	sig := twin.Signer(0).Sign(p, []byte("m"))
	if p.BusyUntil() <= before {
		t.Fatal("Sign charged no virtual time")
	}
	miss := p.BusyUntil()
	s.Verify(p, 0, []byte("m"), sig)
	hit := p.BusyUntil()
	s.Verify(p, 0, []byte("m"), sig)
	if c, r := reg.Verifications(); c != 1 || r != 1 {
		t.Fatalf("one triple verified twice: %d computed, %d reused; want 1 and 1", c, r)
	}
	if missCost, hitCost := hit-miss, p.BusyUntil()-hit; missCost <= 0 || hitCost != missCost {
		t.Fatalf("Verify charged %v computing and %v reusing; want the same, above 0", missCost, hitCost)
	}
	if n := testing.AllocsPerRun(100, func() { s.Verify(p, 0, []byte("m"), sig) }); n != 0 {
		t.Fatalf("a reused verdict allocates %.1f times", n)
	}
}

// flipBit returns a copy of b with one bit of byte i flipped.
func flipBit(b []byte, i int) []byte {
	b = bytes.Clone(b)
	b[i] ^= 1
	return b
}

func TestCachedVerdictNeverChangesAnother(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0, 1})
	_, p := testProc()
	s := reg.Signer(0)
	msg := []byte("prepare v=0 s=1")
	sig := s.Sign(p, msg)
	if !s.Verify(p, 0, msg, sig) || !s.Verify(p, 0, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	c0, r0 := reg.Verifications()
	for _, tc := range []struct {
		name string
		from ProcID
		msg  []byte
		sig  Signature
	}{
		{"another signer ID", 1, msg, sig},
		{"a flipped bit in msg", 0, flipBit(msg, 3), sig},
		{"a flipped bit in sig", 0, msg, flipBit(sig, 40)},
		{"a truncated sig", 0, msg, sig[:SigLen-1]},
		{"an unknown signer", 99, msg, sig},
	} {
		if s.Verify(p, tc.from, tc.msg, tc.sig) {
			t.Errorf("%s accepted after the genuine triple was cached", tc.name)
		}
	}
	// The first three are computed; the last two are refused before the table.
	if c, r := reg.Verifications(); c != c0+3 || r != r0 {
		t.Fatalf("variants: %d computed, %d reused; want 3 and 0", c-c0, r-r0)
	}

	forged := flipBit(sig, 0)
	for i := 0; i < 2; i++ {
		if s.Verify(p, 0, msg, forged) {
			t.Fatal("forged signature accepted")
		}
	}
	if c, r := reg.Verifications(); c != c0+5 || r != r0 {
		t.Fatalf("a forged triple verified twice was computed %d times, reused %d; want 2 and 0", c-c0-3, r-r0)
	}
	if !s.Verify(p, 0, msg, sig) {
		t.Fatal("the genuine triple refused after its variants")
	}
}

// TestVerifiedTableStaysFixed fills the table ten times over: it keeps its
// 1024 entries, and a triple whose verdict was evicted verifies again by
// recomputation. The second pass checks the first 2048 triples, of which the
// table can hold at most half. A twin Registry makes the signatures, so every
// first check computes.
func TestVerifiedTableStaysFixed(t *testing.T) {
	const n, again = 10_000, 2 * verifiedEntries
	reg, twin := NewRegistry(1, []ProcID{0}), NewRegistry(1, []ProcID{0})
	_, p := testProc()
	s, signer := reg.Signer(0), twin.Signer(0)
	msgs, sigs := make([][]byte, n), make([]Signature, n)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i >> 8)}
		sigs[i] = signer.Sign(p, msgs[i])
		if !s.Verify(p, 0, msgs[i], sigs[i]) {
			t.Fatalf("triple %d refused", i)
		}
	}
	c0, r0 := reg.Verifications()
	for i := range msgs[:again] {
		if !s.Verify(p, 0, msgs[i], sigs[i]) {
			t.Fatalf("triple %d refused on its second check", i)
		}
	}
	c, r := reg.Verifications()
	if c0 != n || r0 != 0 || c-c0 < again-verifiedEntries || r-r0 > verifiedEntries {
		t.Fatalf("first pass %d computed, %d reused; second %d computed, %d reused: the table holds more than %d",
			c0, r0, c-c0, r-r0, verifiedEntries)
	}
	if len(reg.verified) != 1024 {
		t.Fatalf("table has %d entries, want 1024 (32 KiB)", len(reg.verified))
	}
}

// TestVerifyBgAndValidShareTheTable takes its shares from a twin Registry, so
// the Registry under test computes each one at its first check.
func TestVerifyBgAndValidShareTheTable(t *testing.T) {
	members := []ids.ID{0, 1, 2}
	reg, twin := NewRegistry(1, members), NewRegistry(1, members)
	e := sim.NewEngine(1)
	main, pool := sim.NewProc(e, "main"), sim.NewProc(e, "pool")
	payload := []byte("checkpoint 256")
	sigs := map[ids.ID]Signature{0: twin.Signer(0).Sign(main, payload), 1: twin.Signer(1).Sign(main, payload)}
	cert := certOf(sigs)
	s := reg.Signer(2)
	own := twin.Signer(2).Sign(main, payload)

	if !s.Valid(main, members, payload, cert, 2) {
		t.Fatal("valid certificate refused")
	}
	verdicts := 0
	count := func(j *Job) {
		if j.OK {
			verdicts++
		}
	}
	for _, q := range members[:2] {
		s.VerifyBg(pool, main, payload, Job{From: q, Sig: sigs[q]}, count)
	}
	s.VerifyBg(pool, main, payload, Job{From: 2, Sig: own}, count)
	if !s.Valid(main, members, payload, certOf(map[ids.ID]Signature{2: own}), 1) {
		t.Fatal("own share refused")
	}
	for e.Step() {
	}
	if verdicts != 3 {
		t.Fatalf("VerifyBg accepted %d of 3 valid shares", verdicts)
	}
	// Valid computes two, VerifyBg reuses them and computes the third, and
	// Valid reuses that.
	if c, r := reg.Verifications(); c != 3 || r != 3 {
		t.Fatalf("%d computed, %d reused; want 3 and 3", c, r)
	}
}

// TestOwnSignatureNeedsNoComputation holds a Registry to the signatures its
// own keys make, by Sign and by SignBg: the first check of each reuses, and
// computes nothing. The same bytes claimed by another signer, and a copy with
// one bit flipped, are computed and refused on every check.
func TestOwnSignatureNeedsNoComputation(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0, 1})
	e := sim.NewEngine(1)
	main, pool := sim.NewProc(e, "main"), sim.NewProc(e, "pool")
	s := reg.Signer(0)
	msg := []byte("commit v=0 s=7")
	sig := s.Sign(main, msg)
	var bg Signature
	s.SignBg(pool, main, []byte("summary 3"), Job{}, func(j *Job) { bg = j.Sig })
	for e.Step() {
	}
	if !s.Verify(main, 0, msg, sig) || !s.Verify(main, 0, []byte("summary 3"), bg) {
		t.Fatal("own signature refused")
	}
	if c, r := reg.Verifications(); c != 0 || r != 2 {
		t.Fatalf("first checks of two own signatures: %d computed, %d reused; want 0 and 2", c, r)
	}
	for _, tc := range []struct {
		name string
		from ProcID
		sig  Signature
	}{
		{"the same bytes under another signer ID", 1, sig},
		{"a copy with one bit flipped", 0, flipBit(sig, 17)},
	} {
		c0, r0 := reg.Verifications()
		for i := 0; i < 2; i++ {
			if s.Verify(main, tc.from, msg, tc.sig) {
				t.Fatalf("%s accepted", tc.name)
			}
		}
		if c, r := reg.Verifications(); c != c0+2 || r != r0 {
			t.Fatalf("%s checked twice: %d computed, %d reused; want 2 and 0", tc.name, c-c0, r-r0)
		}
	}
}

// TestConcurrentVerifiersShareARegistry runs two signers, which write the
// table with every signature they make, beside two verifiers.
func TestConcurrentVerifiersShareARegistry(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0, 1})
	e := sim.NewEngine(1)
	signing := sim.NewProc(e, "signing")
	var msgs [][]byte
	var sigs []Signature
	for i := 0; i < 8; i++ {
		msgs = append(msgs, []byte{byte(i)})
		sigs = append(sigs, reg.Signer(ProcID(i%2)).Sign(signing, msgs[i]))
	}
	forged := flipBit(sigs[0], 0)
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		s, p := reg.Signer(ProcID(g)), sim.NewProc(e, "signer")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				msg := []byte{byte(g), byte(round), 0xff}
				if sig := s.Sign(p, msg); !s.Verify(p, s.ID(), msg, sig) {
					t.Errorf("fresh signature %d of signer %d refused", round, g)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		s, p := reg.Signer(ProcID(g)), sim.NewProc(e, "verifier")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := range msgs {
					if !s.Verify(p, ProcID(i%2), msgs[i], sigs[i]) {
						t.Errorf("triple %d refused", i)
						return
					}
				}
				if s.Verify(p, 0, msgs[0], forged) {
					t.Error("forged signature accepted")
					return
				}
			}
		}()
	}
	wg.Wait()
	if c, r := reg.Verifications(); c+r != 2*rounds*(uint64(len(msgs))+2) || c < 2*rounds {
		t.Fatalf("%d computed, %d reused over %d checks", c, r, 2*rounds*(len(msgs)+2))
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

// derivedKeys lists the ids of reg whose key pair has been derived.
func derivedKeys(reg *Registry) []ProcID {
	var out []ProcID
	for id := ProcID(0); int(id) < len(reg.keys); id++ {
		if reg.keys[id].priv != nil {
			out = append(out, id)
		}
	}
	return out
}

// TestKeysDerivedAtFirstUse: making a Registry or a Signer derives no key; a
// key is derived at its signer's first signature, at the first check that
// computes a verdict of its signature, or at its PublicKey, and no other key
// with it.
func TestKeysDerivedAtFirstUse(t *testing.T) {
	idList := []ProcID{0, 1, 2, 3}
	reg := NewRegistry(1, idList)
	s2 := reg.Signer(2)
	if d := derivedKeys(reg); d != nil {
		t.Fatalf("NewRegistry and Signer derived keys %v", d)
	}
	_, p := testProc()
	s2.Sign(p, []byte("m"))
	if d := derivedKeys(reg); len(d) != 1 || d[0] != 2 {
		t.Fatalf("the first Sign by 2 derived keys %v", d)
	}
	// Signed by another Registry, so the check computes its verdict.
	sig := NewRegistry(1, idList).Signer(3).Sign(p, []byte("m"))
	if !s2.Verify(p, 3, []byte("m"), sig) {
		t.Fatal("valid signature of 3 refused")
	}
	if d := derivedKeys(reg); len(d) != 2 || d[1] != 3 {
		t.Fatalf("the first check of 3's signature derived keys %v", d)
	}
	reg.PublicKey(0)
	if d := derivedKeys(reg); len(d) != 3 || d[0] != 0 {
		t.Fatalf("PublicKey(0) derived keys %v", d)
	}
}

// TestKeysAreTheParents: a key pair derived at its first use is the one the
// Registry derived up front before keys were derived lazily, so signatures
// and public keys are byte-equal to those pinned from then.
func TestKeysAreTheParents(t *testing.T) {
	const (
		wantSig = "8803b2a4a4e3ffcf39afe0b36b83c4b9a922afd89319b5b921dbd5dd6771500f" +
			"c98215b9b97b8a7da0c3c944b1e23f3a6d5ace49ac5c1861ffe68a3934bb8703"
		wantPub = "eca8c5eaf4e6106aed6d5addfe16b36f1bfe3aa41c1ceae43205780d8e3ad191"
	)
	reg := NewRegistry(1, []ProcID{0, 1, 2, 3})
	_, p := testProc()
	if sig := reg.Signer(2).Sign(p, []byte("pinned message")); hex.EncodeToString(sig) != wantSig {
		t.Fatalf("signature %x, want %s", sig, wantSig)
	}
	if pub := reg.PublicKey(2); hex.EncodeToString(pub) != wantPub {
		t.Fatalf("public key %x, want %s", pub, wantPub)
	}
}

// TestUnknownSignerRefusedWithoutComputing: a check of a signature by a
// process the Registry has no key for is refused before the table is
// consulted or a key derived.
func TestUnknownSignerRefusedWithoutComputing(t *testing.T) {
	idList := []ProcID{0, 1}
	reg := NewRegistry(1, idList)
	_, p := testProc()
	sig := NewRegistry(1, idList).Signer(1).Sign(p, []byte("m"))
	if reg.Signer(0).Verify(p, 7, []byte("m"), sig) {
		t.Fatal("signature by an unknown signer accepted")
	}
	if c, r := reg.Verifications(); c != 0 || r != 0 {
		t.Fatalf("refused check counted: computed %d, reused %d", c, r)
	}
	if d := derivedKeys(reg); d != nil {
		t.Fatalf("refused check derived keys %v", d)
	}
}

// TestConcurrentFirstUse: goroutines racing to a key's first use derive it
// once, and every one of them signs and checks with it (run under -race).
func TestConcurrentFirstUse(t *testing.T) {
	idList := []ProcID{0, 1}
	reg := NewRegistry(1, idList)
	e := sim.NewEngine(1)
	msg := []byte("first use")
	want := NewRegistry(1, idList).Signer(1).Sign(sim.NewProc(e, "ref"), msg)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		s, p := reg.Signer(ProcID(g%2)), sim.NewProc(e, "racer")
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 3 {
			case 0:
				if !s.Verify(p, 1, msg, want) {
					t.Error("valid signature refused")
				}
			case 1:
				if reg.PublicKey(1) == nil {
					t.Error("no public key for 1")
				}
			default:
				if sig := reg.Signer(1).Sign(p, msg); !bytes.Equal(sig, want) {
					t.Error("signature differs from the up-front key's")
				}
			}
		}()
	}
	wg.Wait()
	if d := derivedKeys(reg); len(d) != 1 || d[0] != 1 {
		t.Fatalf("derived keys %v, want [1]", d)
	}
}
