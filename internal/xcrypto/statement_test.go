package xcrypto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// statementDigest is the fixed digest the vectors below are built over:
// bytes 0..31.
func statementDigest() (dg [DigestLen]byte) {
	for i := range dg {
		dg[i] = byte(i)
	}
	return dg
}

// statementCase is one statement of the protocol built from fixed inputs,
// the domain byte it must open with and the hex it must encode to: a changed
// byte would make a peer's signature fail to verify at a process that builds
// the statement anew.
type statementCase struct {
	name   string
	domain uint8
	build  func() Statement
	want   string
}

// statementCases holds one case per statement, the summary share at three
// state lengths: its uvarint length takes one byte for 0 and 13, two for 300.
func statementCases() []statementCase {
	dg, state, long := statementDigest(), []byte("certified state"), bytes.Repeat([]byte{7}, 300)
	return []statementCase{
		{"SIGNED", domainSigned, func() Statement { return Signed(1, 42, dg) },
			"0201000000000000002a00000000000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"},
		{"summary share", domainSummary, func() Statement { return SummaryShare(1, 64, "summary state") },
			"09010000000000000040000000000000003d6511efff1720e60d"},
		{"summary share, empty state", domainSummary, func() Statement { return SummaryShare(2, 4, []byte(nil)) },
			"090200000000000000040000000000000099e9d85137db46ef00"},
		{"summary share, 300 B state", domainSummary, func() Statement { return SummaryShare(1, 128, long) },
			"0901000000000000008000000000000000dbc71d0c70b5905fac02"},
		{"CERTIFY", domainCertify, func() Statement { return Certify(7, 0x0102030405060708, dg) },
			"0a07000000000000000807060504030201000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"},
		{"CERTIFY_CHECKPOINT", domainCheckpoint, func() Statement { return CertifyCheckpoint(256, dg) },
			"0d0001000000000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"},
		{"CERTIFY_VC", domainViewChange, func() Statement { return CertifyViewChange(3, 2, state) },
			"140300000000000000020000000000000054a603c295913ed0efafa17ab5f68a1d412e50dd3bd7cc35e5243db443d8b6af"},
	}
}

// TestStatementVectors holds each encoder to its vector, and the summary
// share over a string to the one over the same bytes.
func TestStatementVectors(t *testing.T) {
	for _, tc := range statementCases() {
		st := tc.build()
		if got := hex.EncodeToString(st.Bytes()); got != tc.want {
			t.Errorf("%s encodes %s, want %s", tc.name, got, tc.want)
		}
	}
	bs, str := SummaryShare(1, 64, []byte("summary state")), SummaryShare(1, 64, "summary state")
	if !bytes.Equal(bs.Bytes(), str.Bytes()) {
		t.Errorf("summary share over a string is %x, over the same bytes %x", str.Bytes(), bs.Bytes())
	}
}

// TestStatementDomainsDistinct requires the five domain bytes to differ and
// each statement to open with its own, so no statement reads as another:
// two statements of one length differ in their first byte.
func TestStatementDomainsDistinct(t *testing.T) {
	seen := map[uint8]bool{}
	for _, d := range []uint8{domainSigned, domainSummary, domainCertify, domainCheckpoint, domainViewChange} {
		if seen[d] {
			t.Fatalf("domain byte %d serves two statements", d)
		}
		seen[d] = true
	}
	cases := statementCases()
	for i, a := range cases {
		as := a.build()
		if as.Bytes()[0] != a.domain {
			t.Errorf("%s opens with %d, not its domain byte %d", a.name, as.Bytes()[0], a.domain)
		}
		for _, b := range cases[i+1:] {
			bs := b.build()
			if a.domain != b.domain && len(as.Bytes()) == len(bs.Bytes()) && as.Bytes()[0] == bs.Bytes()[0] {
				t.Errorf("%s and %s are both %d B and open with %d", a.name, b.name, len(as.Bytes()), as.Bytes()[0])
			}
		}
	}
}

// TestStatementsAllocateNothing builds each statement, and verifies a
// signature over it, without a heap allocation: the statement stays on the
// caller's stack.
func TestStatementsAllocateNothing(t *testing.T) {
	_, p := testProc()
	s := NewRegistry(1, []ProcID{0}).Signer(0)
	for _, tc := range statementCases() {
		st := tc.build()
		sig := s.Sign(p, st.Bytes())
		if n := testing.AllocsPerRun(100, func() { st := tc.build(); st.Bytes() }); n != 0 {
			t.Errorf("building a %s statement allocates %.1f times, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			st := tc.build()
			if !s.Verify(p, 0, st.Bytes(), sig) {
				t.Fatalf("%s: a signature over the statement does not verify", tc.name)
			}
		}); n != 0 {
			t.Errorf("verifying a %s statement allocates %.1f times, want 0", tc.name, n)
		}
	}
}
