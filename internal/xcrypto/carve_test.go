package xcrypto

// Tests for signatures carved from a block their Signer owns and for
// certificates appended into the message that carries them: a carved
// signature has no room past its end, a warm Signer allocates a block per 64
// signatures, and the appended certificate is the encoded one, byte for byte.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestSignaturesAreCarvedCapped signs past a block's worth of signatures:
// every one has cap == len == SigLen and verifies, and an append to one
// reallocates, leaving the next signature of its block as it was made.
func TestSignaturesAreCarvedCapped(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0})
	_, p := testProc()
	s := reg.Signer(0)
	var sigs []Signature
	var made [][]byte
	for i := range 150 {
		sig := s.Sign(p, []byte(fmt.Sprintf("msg-%d", i)))
		if len(sig) != SigLen || cap(sig) != SigLen {
			t.Fatalf("signature %d has len %d, cap %d; want both %d", i, len(sig), cap(sig), SigLen)
		}
		sigs, made = append(sigs, sig), append(made, bytes.Clone(sig))
	}
	for i := range sigs[:len(sigs)-1] {
		_ = append(sigs[i], 0xee, 0xee, 0xee, 0xee)
		if !bytes.Equal(sigs[i+1], made[i+1]) {
			t.Fatalf("an append to signature %d wrote into signature %d", i, i+1)
		}
	}
	for i, sig := range sigs {
		if !bytes.Equal(sig, made[i]) || !s.Verify(p, 0, []byte(fmt.Sprintf("msg-%d", i)), sig) {
			t.Fatalf("signature %d changed or does not verify", i)
		}
	}
}

// TestWarmSignAllocatesLittle holds a warm Sign to the block its signature is
// carved from: one allocation per 64 signatures, budget 1 per 32. (It was 1
// per signature while Sign returned ed25519.Sign's own result.)
func TestWarmSignAllocatesLittle(t *testing.T) {
	const batch = 256
	reg := NewRegistry(1, []ProcID{0})
	_, p := testProc()
	s := reg.Signer(0)
	msg := []byte("a bookkeeping summary share")
	signBatch := func() {
		for range batch {
			s.Sign(p, msg)
		}
	}
	signBatch() // warm: the key, the Registry's scratch
	avg := testing.AllocsPerRun(10, signBatch)
	t.Logf("a warm Signer allocates %.0f per %d signatures", avg, batch)
	if avg > batch/32 {
		t.Fatalf("a warm Signer allocates %.0f per %d signatures, budget %d", avg, batch, batch/32)
	}
}

// TestAppendCertIsTheCert appends a certificate behind a message's other
// fields: its bytes are Cert's, Len counts them, ReadCert accepts them and
// decodes every signature. Cert, over the same encoder, allocates once.
func TestAppendCertIsTheCert(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0, 1, 2, 3})
	_, p := testProc()
	payload := []byte("commit v=2 s=9")
	var s Shares[string]
	for _, id := range []ProcID{3, 0, 2} {
		s.Add(id, "x", reg.Signer(id).Sign(p, payload))
	}
	s.Add(1, "y", reg.Signer(1).Sign(p, []byte("other")))

	cert := s.Cert("x")
	enc := wire.NewWriter(0)
	cert.AppendTo(enc)
	if cert.Len() != len(enc.Finish()) || (Cert{}).Len() != 1 {
		t.Fatalf("Len %d for %d encoded bytes; the zero Cert's Len is %d", cert.Len(), len(enc.Finish()), (Cert{}).Len())
	}
	if n := testing.AllocsPerRun(10, func() { s.Cert("x") }); n != 1 {
		t.Fatalf("Cert allocates %.0f times, want 1", n)
	}

	w := wire.NewWriter(8)
	w.U64(42)
	s.AppendCert(w, "x")
	got := w.Finish()
	if !bytes.Equal(got[8:], enc.Finish()) {
		t.Fatalf("AppendCert wrote %x, Cert encodes %x", got[8:], enc.Finish())
	}
	r := wire.NewReader(got)
	r.U64()
	read, err := ReadCert(r)
	if err != nil || r.Done() != nil {
		t.Fatalf("ReadCert refused an appended certificate: %v, done: %v", err, r.Done())
	}
	var signers []ids.ID
	for id, sig := range read.All() {
		signers = append(signers, id)
		if !s.Has(id, "x", sig) {
			t.Errorf("signer %d decoded with another signature", id)
		}
	}
	if !slices.Equal(signers, []ids.ID{0, 2, 3}) {
		t.Fatalf("decoded signers %v, want [0 2 3]", signers)
	}
	if !reg.Signer(1).Valid(p, []ids.ID{0, 1, 2, 3}, payload, read, 3) {
		t.Fatal("the appended certificate does not hold 3 valid signatures")
	}
}

// TestSignersSignConcurrently runs two Signers of one Registry on their own
// goroutines: each carves from its own blocks, so under -race neither sees
// the other's writes, and every signature each made still verifies, unchanged.
func TestSignersSignConcurrently(t *testing.T) {
	reg := NewRegistry(1, []ProcID{0, 1})
	e := sim.NewEngine(1)
	const rounds = 200
	sigs := make([][]Signature, 2)
	var wg sync.WaitGroup
	for g := range 2 {
		s, p := reg.Signer(ProcID(g)), sim.NewProc(e, "signer")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				sigs[g] = append(sigs[g], s.Sign(p, []byte{byte(g), byte(round), byte(round >> 8)}))
			}
		}()
	}
	wg.Wait()
	_, p := testProc()
	v := reg.Signer(0)
	for g := range 2 {
		for round, sig := range sigs[g] {
			if cap(sig) != SigLen || !v.Verify(p, ProcID(g), []byte{byte(g), byte(round), byte(round >> 8)}, sig) {
				t.Fatalf("signature %d of signer %d: cap %d, or does not verify", round, g, cap(sig))
			}
		}
	}
}
