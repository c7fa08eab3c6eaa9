package xcrypto

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/ids"
	"repro/internal/wire"
)

// This file is every statement a process signs with its one key: the byte
// string each signature of the protocol covers, one encoder apiece. A
// statement opens with its domain byte, so a signature over one statement
// never passes for another: three of them share one 49-byte layout and tell
// each other apart by that byte alone.
//
//	SIGNED              [2  | broadcaster | k    | SHA-256 of m]          49 B
//	summary share       [9  | broadcaster | id   | xxHash | uvarint len] <= 35 B
//	CERTIFY             [10 | view        | slot | request digest]        49 B
//	CERTIFY_CHECKPOINT  [13 | seq         | state digest]                 41 B
//	CERTIFY_VC          [20 | view        | about | SHA-256 of state]     49 B
//
// Integers are little-endian u64 (wire's encoding of an ids.ID included). A
// Statement is a fixed-size value, so building one and signing or verifying
// its Bytes allocates nothing.

// The domain bytes of the five statements, one block so their distinctness
// is checked in one place. They alias the wire tags of the messages that
// carry each signature.
const (
	domainSigned     = wire.RingTagSigned
	domainSummary    = wire.RingTagSummaryShare
	domainCertify    = wire.TagCertify
	domainCheckpoint = wire.TagCertifyCP
	domainViewChange = wire.TagCertifyVC
)

// statementCap is the length of the longest statement.
const statementCap = 1 + 8 + 8 + DigestLen

// Statement is the byte string one signature covers.
type Statement struct {
	b [statementCap]byte
	n uint8
}

// Bytes returns the statement's encoding, a view of s.
func (s *Statement) Bytes() []byte { return s.b[:s.n] }

// build encodes domain, then each word as a little-endian u64, then tail.
func build(domain uint8, tail []byte, words ...uint64) (s Statement) {
	b := append(s.b[:0], domain)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	s.n = uint8(len(append(b, tail...)))
	return s
}

// Signed is what a CTBcast broadcaster signs on its slow path:
// non-equivocation binds identifier k to the fingerprint of its message.
func Signed(broadcaster ids.ID, k uint64, msg [DigestLen]byte) Statement {
	return build(domainSigned, msg[:], uint64(broadcaster), k)
}

// SummaryShare is what a CTBcast receiver signs to certify that its state
// after broadcaster's identifier id is state. The xxHash is a cheap binding:
// the signature provides unforgeability, and the length is a second check.
func SummaryShare[S ~string | ~[]byte](broadcaster ids.ID, id uint64, state S) Statement {
	var n [binary.MaxVarintLen64]byte
	length := n[:binary.PutUvarint(n[:], uint64(len(state)))]
	return build(domainSummary, length, uint64(broadcaster), id, XXHash64(state, 0))
}

// Certify is what a replica signs in a CERTIFY share: the leader of view
// proposed the request whose digest is req in slot.
func Certify(view, slot uint64, req [DigestLen]byte) Statement {
	return build(domainCertify, req[:], view, slot)
}

// CertifyCheckpoint is what a replica signs in a CERTIFY_CHECKPOINT share:
// the application state below slot seq has digest state.
func CertifyCheckpoint(seq uint64, state [DigestLen]byte) Statement {
	return build(domainCheckpoint, state[:], seq)
}

// CertifyViewChange is what a replica signs in a CERTIFY_VC share: state is
// replica about's certified state as of view.
func CertifyViewChange(view uint64, about ids.ID, state []byte) Statement {
	dg := sha256.Sum256(state)
	return build(domainViewChange, dg[:], view, uint64(about))
}
