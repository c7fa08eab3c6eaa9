package xcrypto

import (
	"bytes"
	"cmp"
	"fmt"
	"iter"
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

// Cert is a certificate in its canonical encoding: the count, then (signer,
// signature) pairs in strictly ascending signer order, so equal certificates
// are equal bytes and no signer is listed twice. ReadCert returns a view of
// the bytes it validated, Shares.Cert encodes a new certificate once, and
// nothing writes to either. The zero Cert holds no signature.
//
// A certificate only sent on is never a Cert: Shares.AppendCert writes it
// into the message that carries it.
type Cert struct{ enc []byte }

// All walks the certificate's signatures in ascending signer order. The
// signatures are views of the certificate.
func (c Cert) All() iter.Seq2[ids.ID, Signature] {
	return func(yield func(ids.ID, Signature) bool) {
		r := wire.NewReader(c.enc)
		for n := r.Uvarint(); n > 0; n-- {
			if !yield(ids.ID(r.I64()), r.BytesView()) {
				return
			}
		}
	}
}

// Len returns how many bytes AppendTo writes.
func (c Cert) Len() int { return max(len(c.enc), 1) }

// AppendTo encodes the certificate.
func (c Cert) AppendTo(w *wire.Writer) {
	if len(c.enc) == 0 {
		w.Uvarint(0)
		return
	}
	w.Raw(c.enc)
}

// ReadCert decodes a certificate as a view of r's buffer, refusing a count
// above maxCertSigs and a signer that does not follow the previous one in
// ascending order: a correct process sends only canonical certificates.
func ReadCert(r *wire.Reader) (Cert, error) {
	from := r.Offset()
	n := r.Uvarint()
	if n > maxCertSigs {
		return Cert{}, fmt.Errorf("xcrypto: oversized certificate (%d signatures)", n)
	}
	for i, prev := uint64(0), ids.ID(0); i < n; i++ {
		id := ids.ID(r.I64())
		r.BytesView() // the signature, left in place
		if err := r.Err(); err != nil {
			return Cert{}, err
		}
		if i > 0 && id <= prev {
			return Cert{}, fmt.Errorf("xcrypto: certificate lists signer %d after %d", id, prev)
		}
		prev = id
	}
	return Cert{enc: r.SpanView(from)}, r.Err()
}

// Valid reports whether cert holds at least need valid signatures over
// payload by members. It charges p one verification for every member's
// signature in the set and does not stop at need: the cost of a certificate
// does not depend on which of its signatures are good.
func (s *Signer) Valid(p *sim.Proc, members []ids.ID, payload []byte, cert Cert, need int) bool {
	valid := 0
	for q, sig := range cert.All() {
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
//
// A share counts once it is verified. Add takes a share verified already (the
// collector's own, or one checked inline). Offer takes one unverified and
// asks for its verification only while the certificate still needs it: while
// the verified shares over the best-supported value, plus the shares being
// verified, are short of need. Any other share is held. Verdict records how a
// verification came out, and Next hands out a held share once a failed share,
// or one over another value, leaves the certificate short again. So a
// certificate costs the verifications it lacks, plus one per share that fails
// or vouches for another value.
type Shares[V comparable] []share[V]

type share[V comparable] struct {
	signer ids.ID
	val    V
	sig    Signature
	state  shareState
	// relayed marks a share taken from a certificate someone else sent, not
	// from its signer: unless it is verified it gives way to the signer's own.
	relayed bool
}

// shareState is how far a share is on its way to counting.
type shareState uint8

const (
	held      shareState = iota // unverified, not asked for
	verifying                   // handed out for verification
	verified
	invalid // failed verification: counts for nothing and is not asked for again
)

// of returns signer's share, nil if it has none.
func (s Shares[V]) of(signer ids.ID) *share[V] {
	for i := range s {
		if s[i].signer == signer {
			return &s[i]
		}
	}
	return nil
}

// count returns how many signers' shares over val are in state st.
func (s Shares[V]) count(val V, st shareState) int {
	n := 0
	for i := range s {
		if s[i].val == val && s[i].state == st {
			n++
		}
	}
	return n
}

// short reports whether the verified shares over the best-supported value,
// plus the shares being verified, are fewer than need.
func (s Shares[V]) short(need int) bool {
	best, pending := 0, 0
	for i := range s {
		switch s[i].state {
		case verifying:
			pending++
		case verified:
			best = max(best, s.count(s[i].val, verified))
		}
	}
	return best+pending < need
}

// Admits reports whether Add would take a share by signer over val: the
// signer has none yet, or its one share is over val. Callers that verify
// inline ask before they pay for the verification.
func (s Shares[V]) Admits(signer ids.ID, val V) bool {
	sh := s.of(signer)
	return sh == nil || sh.val == val
}

// Add records signer's verified share over val and returns how many signers
// now vouch for val. An unverified share the signer has gives way to it. A
// second verified share by the same signer is not recorded: over the same
// value it is a retransmission and the count stands, over a different one it
// is refused and Add returns 0.
func (s *Shares[V]) Add(signer ids.ID, val V, sig Signature) int {
	switch sh := s.of(signer); {
	case sh == nil:
		*s = append(*s, share[V]{signer: signer, val: val, sig: sig, state: verified})
	case sh.state != verified:
		*sh = share[V]{signer: signer, val: val, sig: sig, state: verified}
	case sh.val != val:
		return 0
	}
	return s.count(val, verified)
}

// Offer records signer's unverified share over val, relayed if it came inside
// someone else's certificate, and reports whether to verify it now; if so it
// is being verified until its Verdict. A signer that has a share already is
// not recorded again, except that its own share replaces a relayed one not
// found valid.
func (s *Shares[V]) Offer(signer ids.ID, val V, sig Signature, need int, relayed bool) bool {
	fresh := share[V]{signer: signer, val: val, sig: sig, relayed: relayed}
	switch sh := s.of(signer); {
	case sh == nil:
		*s = append(*s, fresh)
		sh = &(*s)[len(*s)-1]
		return s.ask(sh, need)
	case relayed || !sh.relayed:
		return false
	case sh.val == val && bytes.Equal(sh.sig, sig):
		sh.relayed = false // the same share, now from its signer
		return false
	case sh.state != verified:
		*sh = fresh
		return s.ask(sh, need)
	}
	return false
}

// ask hands sh out for verification if the certificate is short without it.
func (s Shares[V]) ask(sh *share[V], need int) bool {
	if !s.short(need) {
		return false
	}
	sh.state = verifying
	return true
}

// Verdict records whether signer's share being verified, sig, is valid and
// returns how many verified signers now vouch for its value. A share found
// invalid stays invalid: neither it nor another share relayed for its signer
// is verified again. A verdict on a share that is not being verified, or not
// with sig, changes nothing and returns 0.
func (s Shares[V]) Verdict(signer ids.ID, sig Signature, ok bool) int {
	sh := s.of(signer)
	if sh == nil || sh.state != verifying || !bytes.Equal(sh.sig, sig) {
		return 0
	}
	if !ok {
		sh.state = invalid
		return 0
	}
	sh.state = verified
	return s.count(sh.val, verified)
}

// Next hands out a held share to verify, marking it being verified, while the
// certificate is short (see Offer): of the held shares, one over the value
// with the most verified shares, the earliest offered between equals.
func (s Shares[V]) Next(need int) (signer ids.ID, val V, sig Signature, ok bool) {
	if !s.short(need) {
		return signer, val, nil, false
	}
	pick, most := -1, -1
	for i := range s {
		if n := s.count(s[i].val, verified); s[i].state == held && n > most {
			pick, most = i, n
		}
	}
	if pick < 0 {
		return signer, val, nil, false
	}
	sh := &s[pick]
	sh.state = verifying
	return sh.signer, sh.val, sh.sig, true
}

// Reachable reports whether the shares over val not found invalid number
// need: whether the set may still certify val.
func (s Shares[V]) Reachable(val V, need int) bool {
	n := 0
	for i := range s {
		if s[i].val == val && s[i].state != invalid {
			n++
		}
	}
	return n >= need
}

// AppendCert writes the certificate the verified shares over val make up into
// w, growing w at most once: the count, then (signer, signature) pairs in
// ascending signer order. It is the one certificate encoder.
func (s Shares[V]) AppendCert(w *wire.Writer, val V) {
	var buf [maxCertSigs]int // a larger set spills to the heap
	picked, size := buf[:0], 1
	for i := range s {
		if s[i].val == val && s[i].state == verified {
			picked = append(picked, i)
			size += 8 + wire.BytesLen(len(s[i].sig))
		}
	}
	slices.SortFunc(picked, func(a, b int) int { return cmp.Compare(s[a].signer, s[b].signer) })
	w.Grow(size)
	w.Uvarint(uint64(len(picked)))
	for _, i := range picked {
		w.I64(int64(s[i].signer))
		w.Bytes(s[i].sig)
	}
}

// Cert encodes the certificate the verified shares over val make up, for a
// process that keeps it (a checkpoint, a certified view-change state). A
// certificate only sent on is appended into its message (AppendCert).
func (s Shares[V]) Cert(val V) Cert {
	var w wire.Writer
	s.AppendCert(&w, val)
	return Cert{enc: w.Finish()}
}

// Has reports whether sig is the verified share signer holds over val.
func (s Shares[V]) Has(signer ids.ID, val V, sig Signature) bool {
	sh := s.of(signer)
	return sh != nil && sh.state == verified && sh.val == val && bytes.Equal(sh.sig, sig)
}
