package xcrypto

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/sim"
	"repro/internal/wire"
)

// certOf encodes sigs as a certificate.
func certOf(sigs map[ids.ID]Signature) Cert {
	var s Shares[int]
	for id, sig := range sigs {
		s.Add(id, 0, sig)
	}
	return s.Cert(0)
}

// TestCertBytesAreTheParents pins the certificate encoding to the bytes the
// per-package codecs it replaced produced: the vector is the output of the
// consensus package's signature-set encoder at commit 7314ae4 for this
// three-signer set. Shares.Cert encodes it from shares added out of signer
// order, and ReadCert refuses every set a correct process does not send.
func TestCertBytesAreTheParents(t *testing.T) {
	// Count 3, then signer -1 with an empty signature, signer 7 with
	// "seven", signer 300 with aa bb.
	want := []byte{
		0x3,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0,
		0x7, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x5, 0x73, 0x65, 0x76, 0x65, 0x6e,
		0x2c, 0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x2, 0xaa, 0xbb,
	}
	var s Shares[string]
	s.Add(300, "x", Signature{0xaa, 0xbb})
	s.Add(-1, "x", Signature{})
	s.Add(5, "y", Signature("other value"))
	s.Add(7, "x", Signature("seven"))
	w := wire.NewWriter(64)
	s.Cert("x").AppendTo(w)
	if !bytes.Equal(w.Finish(), want) {
		t.Fatalf("Shares.Cert:\n got %#v\nwant %#v", w.Finish(), want)
	}
	r := wire.NewReader(want)
	got, err := ReadCert(r)
	if err != nil || r.Done() != nil {
		t.Fatalf("ReadCert: %v, done: %v", err, r.Done())
	}
	var signers []ids.ID
	for id, sig := range got.All() {
		signers = append(signers, id)
		if !s.Has(id, "x", sig) {
			t.Errorf("signer %d decoded with %x", id, sig)
		}
	}
	if !slices.Equal(signers, []ids.ID{-1, 7, 300}) {
		t.Errorf("walked signers %v, want ascending -1 7 300", signers)
	}
	w = wire.NewWriter(64)
	got.AppendTo(w)
	if !bytes.Equal(w.Finish(), want) {
		t.Fatalf("decoded certificate re-encodes as %#v", w.Finish())
	}

	// One entry more than a group can have members, every one well formed.
	big := wire.NewWriter(1024)
	big.Uvarint(maxCertSigs + 1)
	for i := 0; i <= maxCertSigs; i++ {
		big.I64(int64(i))
		big.Bytes([]byte{1})
	}
	// The vector with its second signer (7) renamed: a repeat of the first,
	// then one below it.
	repeated, descending := slices.Clone(want), slices.Clone(want)
	for i := range 8 {
		repeated[10+i], descending[10+i] = 0xff, 0xff
	}
	descending[10] = 0xfe // -2
	for name, b := range map[string][]byte{
		"65 entries":        big.Finish(),
		"repeated signer":   repeated,
		"descending signer": descending,
		"truncated entry":   want[:len(want)-1],
		"count, no entries": {0x3},
		"empty":             {},
	} {
		if c, err := ReadCert(wire.NewReader(b)); err == nil {
			t.Errorf("%s: decoded %v", name, maps.Collect(c.All()))
		}
	}
}

func TestValidCountsMembersOnly(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0, 1, 2, 9})
	e := sim.NewEngine(1)
	signing := sim.NewProc(e, "signing")
	members := []ids.ID{0, 1, 2}
	payload := []byte("checkpoint 256")
	sign := func(id ids.ID) Signature { return reg.Signer(id).Sign(signing, payload) }
	forged := append(Signature(nil), sign(2)...)
	forged[0] ^= 1

	const one = latmodel.VerifyCost + latmodel.CryptoDispatchCost
	for _, tc := range []struct {
		name    string
		cert    Cert
		need    int
		want    bool
		charged int // verifications
	}{
		{"f+1 members", certOf(map[ids.ID]Signature{0: sign(0), 1: sign(1)}), 2, true, 2},
		{"all three, no early exit", certOf(map[ids.ID]Signature{0: sign(0), 1: sign(1), 2: sign(2)}), 2, true, 3},
		{"a valid signature by a non-member does not count", certOf(map[ids.ID]Signature{0: sign(0), 9: sign(9)}), 2, false, 1},
		{"a forged signature by a member does not count", certOf(map[ids.ID]Signature{0: sign(0), 2: forged}), 2, false, 2},
		{"a member's signature under another's name", certOf(map[ids.ID]Signature{0: sign(0), 1: sign(0)}), 2, false, 2},
		{"empty", Cert{}, 1, false, 0},
	} {
		p := sim.NewProc(e, tc.name)
		if got := reg.Signer(0).Valid(p, members, payload, tc.cert, tc.need); got != tc.want {
			t.Errorf("%s: Valid = %v", tc.name, got)
		}
		if got := p.BusyUntil(); got != sim.Time(tc.charged)*sim.Time(one) {
			t.Errorf("%s: charged %v, want %d verifications of %v", tc.name, got, tc.charged, one)
		}
	}
}

func TestSharesOnePerSigner(t *testing.T) {
	var s Shares[string]
	sigA, sigB, sigC := Signature("a"), Signature("b"), Signature("c")
	if !s.Admits(1, "x") || s.Has(1, "x", sigA) || len(maps.Collect(s.Cert("x").All())) != 0 {
		t.Fatal("the empty set holds something")
	}
	if n := s.Add(1, "x", sigA); n != 1 {
		t.Fatalf("first share: %d signers", n)
	}
	if n := s.Add(1, "x", sigA); n != 1 || len(s) != 1 {
		t.Fatalf("retransmission: %d signers, %d shares held", n, len(s))
	}
	if s.Admits(1, "y") || s.Add(1, "y", sigB) != 0 || len(s) != 1 {
		t.Fatalf("a second value by the same signer was taken: %+v", s)
	}
	if n := s.Add(2, "y", sigB); n != 1 {
		t.Fatalf("first share over y: %d signers", n)
	}
	if n := s.Add(3, "x", sigC); n != 2 {
		t.Fatalf("second signer of x: %d signers", n)
	}
	if c := maps.Collect(s.Cert("x").All()); len(c) != 2 || !bytes.Equal(c[1], sigA) || !bytes.Equal(c[3], sigC) {
		t.Fatalf("Cert(x) = %v", c)
	}
	if c := maps.Collect(s.Cert("y").All()); len(c) != 1 || !bytes.Equal(c[2], sigB) {
		t.Fatalf("Cert(y) = %v", c)
	}
	for name, has := range map[string]bool{
		"other signer":    s.Has(2, "x", sigA),
		"other value":     s.Has(1, "y", sigA),
		"other signature": s.Has(1, "x", sigB),
		"unknown signer":  s.Has(4, "x", sigA),
	} {
		if has {
			t.Errorf("Has matched with an %s", name)
		}
	}
	if !s.Has(1, "x", sigA) || !s.Has(2, "y", sigB) {
		t.Fatal("Has missed a share that was added")
	}
}

// TestSharesVerifyOnlyWhatTheCertificateLacks walks Offer, Verdict and Next
// through a certificate of need 2: a share is handed out for verification
// only while the verified shares over the best-supported value plus those
// being verified are short of need; a failed share, or one over another
// value, releases a held one; a share relayed in someone else's certificate
// gives way to its signer's own until it is verified.
func TestSharesVerifyOnlyWhatTheCertificateLacks(t *testing.T) {
	const need = 2
	var s Shares[string]
	if s.Add(0, "x", Signature("own")) != 1 {
		t.Fatal("own share not counted")
	}
	if !s.Offer(1, "x", Signature("s1"), need, false) {
		t.Fatal("the share the certificate lacks was not handed out")
	}
	if s.Offer(2, "x", Signature("s2"), need, false) || s.Offer(2, "y", Signature("s2y"), need, false) {
		t.Fatal("a share beyond the certificate's need was handed out, or a second one by its signer taken")
	}
	if _, _, _, ok := s.Next(need); ok || !s.Reachable("x", need) || s.Reachable("y", need) {
		t.Fatal("a held share was handed out while one is being verified")
	}
	if s.Verdict(1, Signature("other"), true) != 0 || s.Verdict(2, Signature("s2"), true) != 0 {
		t.Fatal("a verdict on a share not being verified, or on other bytes, counted")
	}
	// The share being verified fails: the held one goes next, once.
	if s.Verdict(1, Signature("s1"), false) != 0 || s.Has(1, "x", Signature("s1")) {
		t.Fatal("a failed share counts")
	}
	signer, val, sig, ok := s.Next(need)
	if !ok || signer != 2 || val != "x" || string(sig) != "s2" {
		t.Fatalf("Next after a failure: %v %q %q %v", signer, val, sig, ok)
	}
	if _, _, _, ok := s.Next(need); ok {
		t.Fatal("Next handed out a share twice")
	}
	if s.Offer(1, "x", Signature("s1"), need, false) {
		t.Fatal("a signer whose share failed was verified again")
	}
	if n := s.Verdict(2, Signature("s2"), true); n != 2 || len(maps.Collect(s.Cert("x").All())) != 2 || !s.Has(2, "x", Signature("s2")) {
		t.Fatalf("certificate from the held share: %d signers, %v", n, s.Cert("x"))
	}

	// A share over another value, once verified, leaves the certificate short.
	var v Shares[string]
	v.Add(0, "x", Signature("own"))
	v.Offer(1, "y", Signature("s1y"), need, false)
	v.Offer(2, "x", Signature("s2"), need, false)
	if v.Verdict(1, Signature("s1y"), true) != 1 {
		t.Fatal("a valid share over y does not count for y")
	}
	if signer, _, _, ok := v.Next(need); !ok || signer != 2 {
		t.Fatal("a share over another value did not release the held one")
	}

	// Relayed shares: the signer's own replaces one not found valid.
	var r Shares[string]
	r.Add(0, "x", Signature("own"))
	if !r.Offer(1, "z", Signature("forged"), need, true) || r.Offer(1, "x", Signature("s1"), need, true) {
		t.Fatal("relayed shares: the first was not handed out, or a second relay was taken")
	}
	r.Verdict(1, Signature("forged"), false)
	if !r.Offer(1, "x", Signature("s1"), need, false) || r.Verdict(1, Signature("s1"), true) != 2 {
		t.Fatal("the signer's own share did not replace an invalid relayed one")
	}
	if r.Offer(1, "y", Signature("s1y"), need, false) {
		t.Fatal("a verified share gave way")
	}
}
