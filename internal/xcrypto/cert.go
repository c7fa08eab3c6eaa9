package xcrypto

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/wire"
)

// This file is the one certificate of the protocol: signatures by distinct
// members of a 2f+1 group over one payload, f+1 of which prove that a correct
// member signed it. PΣ of a COMMIT, CΣ of a CHECKPOINT, the certified replica
// states of a NEW_VIEW and the CTBcast summary certificate are all a Cert,
// and every one of them is collected share by share in a Shares.

// maxCertSigs bounds a decoded certificate: one signature per group member,
// and a group has at most 64.
const maxCertSigs = 64

// Cert maps each signer to its signature over the certified payload.
type Cert map[ids.ID]Signature

// AppendTo encodes the certificate: the count, then (signer, signature) in
// signer order, so equal certificates encode to equal bytes.
func (c Cert) AppendTo(w *wire.Writer) {
	var buf [maxCertSigs]ids.ID // a larger set spills to the heap
	signers := buf[:0]
	for id := range c {
		signers = append(signers, id)
	}
	slices.Sort(signers)
	w.Uvarint(uint64(len(signers)))
	for _, id := range signers {
		w.I64(int64(id))
		w.Bytes(c[id])
	}
}

// ReadCert decodes what AppendTo wrote, refusing a count above maxCertSigs
// before it allocates anything. The signatures are views into r's buffer.
func ReadCert(r *wire.Reader) (Cert, error) {
	n := r.Uvarint()
	if n > maxCertSigs {
		return nil, fmt.Errorf("xcrypto: oversized certificate (%d signatures)", n)
	}
	c := make(Cert, n)
	for ; n > 0; n-- {
		id := ids.ID(r.I64())
		//ubft:poolsafety certificates are decoded from delivered frames only (immutable once sent, never recycled, possibly shared by every reader of a ring frame) or from state bytes the caller owns; a retained certificate pins that one buffer
		c[id] = r.BytesView()
	}
	return c, r.Err()
}

// Valid reports whether cert holds at least need valid signatures over
// payload by distinct members. It charges p one verification for every
// member's signature in the set and does not stop at need: the cost of a
// certificate does not depend on which of its signatures are good.
func (s *Signer) Valid(p *sim.Proc, members []ids.ID, payload []byte, cert Cert, need int) bool {
	valid := 0
	for q, sig := range cert {
		if slices.Contains(members, q) && s.Verify(p, q, payload, sig) {
			valid++
		}
	}
	return valid >= need
}

// Shares collects the signature shares toward one certificate, each over the
// value V its signer vouches for. It holds at most one share per signer — a
// correct process signs one value per certificate — so whatever a Byzantine
// signer sends, the set is bounded by the group size.
type Shares[V comparable] []share[V]

type share[V comparable] struct {
	signer ids.ID
	val    V
	sig    Signature
}

// of returns signer's share, nil if it has none.
func (s Shares[V]) of(signer ids.ID) *share[V] {
	for i := range s {
		if s[i].signer == signer {
			return &s[i]
		}
	}
	return nil
}

// Admits reports whether Add would take a share by signer over val: the
// signer has none yet, or its one share is over val. Callers that verify
// inline ask before they pay for the verification.
func (s Shares[V]) Admits(signer ids.ID, val V) bool {
	sh := s.of(signer)
	return sh == nil || sh.val == val
}

// Add records signer's verified share over val and returns how many signers
// now vouch for val. A second share by the same signer is not recorded: over
// the same value it is a retransmission and the count stands, over a
// different one it is refused and Add returns 0.
func (s *Shares[V]) Add(signer ids.ID, val V, sig Signature) int {
	if sh := s.of(signer); sh == nil {
		*s = append(*s, share[V]{signer: signer, val: val, sig: sig})
	} else if sh.val != val {
		return 0
	}
	n := 0
	for i := range *s {
		if (*s)[i].val == val {
			n++
		}
	}
	return n
}

// Cert returns the certificate the shares over val make up.
func (s Shares[V]) Cert(val V) Cert {
	c := make(Cert, len(s))
	for i := range s {
		if s[i].val == val {
			c[s[i].signer] = s[i].sig
		}
	}
	return c
}

// Has reports whether sig is the share signer added over val.
func (s Shares[V]) Has(signer ids.ID, val V, sig Signature) bool {
	sh := s.of(signer)
	return sh != nil && sh.val == val && bytes.Equal(sh.sig, sig)
}
