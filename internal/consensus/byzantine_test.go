package consensus

// White-box tests of the Byzantine message checks (Algorithm 5) and the
// pieces of the view-change machinery that fault injection exercises. The
// checks are reached the way a CTBcast group reaches them: onConsensusMsg,
// which applies what it accepts.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/app"
	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// wbRig builds three wired replicas with white-box access.
type wbRig struct {
	eng  *sim.Engine
	net  *simnet.Network
	reg  *xcrypto.Registry
	reps []*Replica
}

func newWBRig(t testing.TB) *wbRig { return newAppRig(t, app.NewFlip) }

// newAppRig is newWBRig with each replica running newApp's application.
func newAppRig[A app.StateMachine](t testing.TB, newApp func() A) *wbRig {
	t.Helper()
	rig := &wbRig{eng: sim.NewEngine(1)}
	rig.net = simnet.New(rig.eng, simnet.RDMAOptions())
	repIDs := []ids.ID{0, 1, 2}
	memIDs := []ids.ID{100, 101, 102}
	var mns []*memnode.Node
	for i, id := range memIDs {
		rt := router.New(rig.net.AddNode(id, fmt.Sprintf("mem%d", i)))
		mns = append(mns, memnode.New(rt))
	}
	rig.reg = xcrypto.NewRegistry(2, repIDs)
	cfg := func(self ids.ID) Config {
		return Config{
			Self: self, Replicas: repIDs, MemNodes: memIDs, Fm: 1,
			Window: 32, Tail: 16, MsgCap: 1024,
			SlowPathDelay: sim.Millisecond, ViewChangeTimeout: 2 * sim.Millisecond,
			App: newApp(),
		}
	}
	AllocateCluster(cfg(0), mns)
	for _, id := range repIDs {
		rt := router.New(rig.net.AddNode(id, fmt.Sprintf("r%d", id)))
		rig.reps = append(rig.reps, NewReplica(cfg(id), Deps{RT: rt, Registry: rig.reg}))
	}
	return rig
}

func (rig *wbRig) stop() {
	for _, r := range rig.reps {
		r.Stop()
	}
}

func TestValidatePrepareFromNonLeaderRejected(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	// Replica 1 is not the leader of view 0 but "broadcasts" a PREPARE.
	pr := Prepare{View: 0, Slot: 0, Req: Request{Client: 200, Num: 1, Payload: []byte("x")}}
	if r.accepts(ids.ID(1), EncodePrepare(pr)) {
		t.Fatal("PREPARE from non-leader validated")
	}
	// From the actual leader it passes.
	if !r.accepts(ids.ID(0), EncodePrepare(pr)) {
		t.Fatal("legitimate PREPARE rejected")
	}
}

func TestValidatePrepareOutsideWindowRejected(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[1]
	pr := Prepare{View: 0, Slot: 999, Req: NoOp()} // window is [0,31]
	if r.accepts(ids.ID(0), EncodePrepare(pr)) {
		t.Fatal("out-of-window PREPARE validated")
	}
}

func TestValidateDuplicatePrepareRejected(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[1]
	pr := Prepare{View: 0, Slot: 3, Req: Request{Client: 200, Num: 1, Payload: []byte("a")}}
	if !r.accepts(ids.ID(0), EncodePrepare(pr)) {
		t.Fatal("first PREPARE rejected")
	}
	// A second, conflicting PREPARE for the same slot in the same view is
	// equivocation at the consensus level.
	pr2 := Prepare{View: 0, Slot: 3, Req: Request{Client: 200, Num: 2, Payload: []byte("b")}}
	if r.accepts(ids.ID(0), EncodePrepare(pr2)) {
		t.Fatal("consensus-level equivocation validated")
	}
}

func TestValidateCommitNeedsRealCertificate(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	dg := req.Digest()

	// Forged certificate: garbage signatures.
	forged := CommitCert{View: 0, Slot: 0, Req: req, Sigs: certOf(map[ids.ID]xcrypto.Signature{
		1: make(xcrypto.Signature, xcrypto.SigLen),
		2: make(xcrypto.Signature, xcrypto.SigLen),
	})}
	w := wire.NewWriter(256)
	w.U8(tagCommit)
	forged.encode(w)
	if r.accepts(ids.ID(1), w.Finish()) {
		t.Fatal("forged COMMIT certificate validated")
	}

	// Real certificate: f+1 genuine CERTIFY signatures.
	proc := sim.NewProc(rig.eng, "signer")
	st := xcrypto.Certify(0, 0, dg)
	real := CommitCert{View: 0, Slot: 0, Req: req, Sigs: certOf(map[ids.ID]xcrypto.Signature{
		1: rig.reg.Signer(1).Sign(proc, st.Bytes()),
		2: rig.reg.Signer(2).Sign(proc, st.Bytes()),
	})}
	w2 := wire.NewWriter(256)
	w2.U8(tagCommit)
	real.encode(w2)
	if !r.accepts(ids.ID(1), w2.Finish()) {
		t.Fatal("genuine COMMIT certificate rejected")
	}
}

// TestCommitWithoutPrepareIsNoUndecidedWork: validating a COMMIT for an
// in-window slot this replica holds no PREPARE for makes the slot's record
// (its CERTIFY shares are kept there), and one COMMIT decides nothing; that
// record is no evidence of a stalled leader, so it leaves hasUndecidedWork
// false and arms no suspicion.
func TestCommitWithoutPrepareIsNoUndecidedWork(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	const s = Slot(3)
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	dg := req.Digest()
	proc := sim.NewProc(rig.eng, "signer")
	st := xcrypto.Certify(0, uint64(s), dg)
	cert := CommitCert{View: 0, Slot: s, Req: req, Sigs: certOf(map[ids.ID]xcrypto.Signature{
		1: rig.reg.Signer(1).Sign(proc, st.Bytes()),
		2: rig.reg.Signer(2).Sign(proc, st.Bytes()),
	})}
	w := wire.NewWriter(256)
	w.U8(tagCommit)
	cert.encode(w)
	if !r.accepts(ids.ID(1), w.Finish()) {
		t.Fatal("genuine COMMIT certificate rejected")
	}
	if _, ok := r.slots[s]; !ok || r.hasPrepare(s) || r.isDecided(s) {
		t.Fatalf("the COMMIT left slot record %v, a PREPARE %v, a decision %v; want a record only", ok, r.hasPrepare(s), r.isDecided(s))
	}
	if r.hasUndecidedWork() || r.progressTimer.Pending() {
		t.Fatalf("a COMMIT without a PREPARE counts as undecided work %v, arms suspicion %v", r.hasUndecidedWork(), r.progressTimer.Pending())
	}
	rig.eng.RunFor(10 * r.cfg.ViewChangeTimeout)
	if r.ViewChanges != 0 || r.View() != 0 {
		t.Fatalf("%d view changes, view %d, after a COMMIT without a PREPARE", r.ViewChanges, r.View())
	}
}

// TestRepeatedSignerRejected: a certificate that lists one genuine share twice
// under its signer is not canonical, so no correct process sends it; a COMMIT
// or CHECKPOINT carrying one is refused however many times the share is
// listed.
func TestRepeatedSignerRejected(t *testing.T) {
	rig := newMsgFuzzRig(t)
	defer rig.stop()
	r := rig.reps[0]
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	cpDigest := xcrypto.DigestNoCharge([]byte("state"))
	w := wire.NewWriter(256)
	w.U8(tagCommit)
	(&CommitCert{View: 0, Slot: 0, Req: req}).encode(w)
	commit := withRepeatedSigner(w.Finish(), 1, rig.sigs(xcrypto.Certify(0, 0, req.Digest()), 1)[1])
	w = wire.NewWriter(256)
	w.U8(tagCheckpoint)
	(&Checkpoint{Seq: 32, StateDigest: cpDigest}).encode(w)
	checkpoint := withRepeatedSigner(w.Finish(), 1, rig.sigs(xcrypto.CertifyCheckpoint(32, cpDigest), 1)[1])
	if r.accepts(1, commit) || r.accepts(1, checkpoint) {
		t.Fatal("a certificate listing one share twice validated")
	}
}

// TestCommitCertificateAllocatesNothing: a COMMIT's certificate is read in
// place, so decoding it, walking its signatures and validating it against
// CERTIFY shares this replica verified already allocate nothing.
func TestCommitCertificateAllocatesNothing(t *testing.T) {
	rig := newMsgFuzzRig(t)
	defer rig.stop()
	r := rig.reps[0]
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	dg := req.Digest()
	sigs := rig.sigs(xcrypto.Certify(0, 0, dg), 1, 2)
	for p, sig := range sigs {
		r.onCertify(p, 0, 0, dg, sig)
	}
	w := wire.NewWriter(256)
	(&CommitCert{View: 0, Slot: 0, Req: req, Sigs: certOf(sigs)}).encode(w)
	frame := w.Finish()
	computed, reused := rig.reg.Verifications()
	allocs := testing.AllocsPerRun(100, func() {
		c, err := decodeCommitCert(wire.NewReader(frame))
		signers := 0
		for range c.Sigs.All() {
			signers++
		}
		if err != nil || signers != 2 || !r.validCommit(r.state[1], &c) {
			t.Fatalf("COMMIT certificate: %v, %d signers, or refused", err, signers)
		}
	})
	if c, rr := rig.reg.Verifications(); allocs != 0 || c != computed || rr != reused {
		t.Fatalf("a COMMIT certificate of known shares: %.1f allocations, %d signatures computed, %d verdicts reused", allocs, c-computed, rr-reused)
	}
}

func TestValidateCheckpointNeedsCertAndProgress(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	// Non-superseding checkpoint (seq 0 == genesis).
	w := wire.NewWriter(64)
	w.U8(tagCheckpoint)
	(&Checkpoint{Seq: 0}).encode(w)
	if r.accepts(ids.ID(1), w.Finish()) {
		t.Fatal("non-superseding CHECKPOINT validated")
	}
	// Superseding but uncertified.
	w2 := wire.NewWriter(64)
	w2.U8(tagCheckpoint)
	(&Checkpoint{Seq: 32}).encode(w2)
	if r.accepts(ids.ID(1), w2.Finish()) {
		t.Fatal("uncertified CHECKPOINT validated")
	}
}

func TestValidateSealViewMonotonic(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	mkSeal := func(v View) []byte {
		w := wire.NewWriter(16)
		w.U8(tagSealView)
		w.U64(uint64(v))
		return w.Finish()
	}
	for _, v := range []View{1, 2} {
		if !r.accepts(ids.ID(1), mkSeal(v)) {
			t.Fatal("legitimate SEAL_VIEW rejected")
		}
	}
	// Non-increasing seals stay wire-valid (a cold-rejoined replica's
	// reborn channel re-declares a view peers may already have recorded),
	// but they must be no-ops: the per-peer view must not regress and
	// newViewUsed must survive, keeping a second NEW_VIEW in the same view
	// Byzantine.
	st := r.state[ids.ID(1)]
	st.newViewUsed = true
	for _, v := range []View{2, 1} {
		if !r.accepts(ids.ID(1), mkSeal(v)) {
			t.Fatalf("re-declared SEAL_VIEW(%d) rejected at the wire", v)
		}
		if st.view != 2 || !st.newViewUsed {
			t.Fatalf("SEAL_VIEW(%d) after SEAL_VIEW(2) not a no-op: view=%d newViewUsed=%v", v, st.view, st.newViewUsed)
		}
	}
	if r.accepts(ids.ID(1), []byte{tagSealView}) {
		t.Fatal("truncated SEAL_VIEW validated")
	}
}

// TestSecondNewViewForAViewRejected: a leader that opened its view with a
// NEW_VIEW and sends another for the same view, whole or as the head of a
// fragment train, is Byzantine even though nothing used the first (a correct
// leader opens a view once). The verdict is Reject, which blocks the leader's
// channel, and the frame changes nothing.
func TestSecondNewViewForAViewRejected(t *testing.T) {
	rig := newMsgFuzzRig(t)
	defer rig.stop()
	r := rig.reps[2]
	p := rig.advance(t, 2)
	first, _ := rig.newViewTrain()
	for i, m := range [][]byte{rig.newViewFrame(), first} {
		before := channelState(r, p)
		if v := r.onConsensusMsg(p, m); v != ctbcast.Reject {
			t.Fatalf("second NEW_VIEW %d for view 1: verdict %v, want Reject", i, v)
		}
		if after := channelState(r, p); after != before {
			t.Fatalf("second NEW_VIEW %d changed the channel state:\n%s\n%s", i, before, after)
		}
	}
}

func TestValidateUnknownTagRejected(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	if rig.reps[0].accepts(ids.ID(1), []byte{0xEE, 1, 2, 3}) {
		t.Fatal("unknown message tag validated")
	}
}

func TestMustProposeSelectsHighestView(t *testing.T) {
	mkCert := func(slot Slot, v View, payload string) ReplicaCert {
		cs := CertifiedState{
			View:       3,
			Checkpoint: Checkpoint{Seq: 0},
			Commits: commitLog{
				{View: v, Slot: slot, Req: Request{Client: 200, Num: uint64(v), Payload: []byte(payload)}},
			},
		}
		c, err := newReplicaCert(0, encodeCertifiedState(&cs), xcrypto.Cert{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plan := planOf([]ReplicaCert{mkCert(5, 1, "old"), mkCert(5, 2, "new")})
	req, any := plan.mustPropose(5)
	if any || string(req.Payload) != "new" {
		t.Fatalf("mustPropose picked %q (any=%v), want highest-view commit", req.Payload, any)
	}
	// Slot without commits but below the max open slot: noop.
	req, any = plan.mustPropose(3)
	if any || !req.IsNoOp() {
		t.Fatalf("uncommitted open slot: %+v any=%v", req, any)
	}
	// Slot beyond everything: free for new proposals.
	if _, any = plan.mustPropose(6); !any {
		t.Fatal("slot beyond certified range should be Any")
	}
}

// scanMustPropose is MustPropose as a scan of the certificates, one call per
// slot, each decoding every certified state: what the plan replaced, kept as
// the reference the plan is checked against.
func scanMustPropose(s Slot, certs []ReplicaCert) (Request, bool) {
	maxOpen := Slot(0)
	var best *CommitCert
	for _, c := range certs {
		cs, err := decodeCertifiedState(c.StateBytes)
		if err != nil {
			continue
		}
		for _, cc := range cs.Commits {
			maxOpen = max(maxOpen, cc.Slot)
			if cc.Slot == s && (best == nil || cc.View > best.View) {
				best = &cc
			}
		}
	}
	if best != nil {
		return best.Req, false
	}
	if s > maxOpen {
		return Request{}, true
	}
	return NoOp(), false
}

// TestNewViewPlanMatchesScan: over seeded random sets of certified states —
// slots shared between certificates, the same view in several of them (the
// earlier certificate wins), slots above every checkpoint, empty states — the
// plan answers every slot of the window as the per-slot scan does.
func TestNewViewPlanMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const window = 32
	for set := 0; set < 300; set++ {
		certs := make([]ReplicaCert, 1+rng.Intn(3))
		for i := range certs {
			cs := CertifiedState{View: 9, Checkpoint: Checkpoint{Seq: Slot(rng.Intn(8))}}
			for n := rng.Intn(4) * rng.Intn(6); n > 0; n-- { // a quarter of the states are empty
				s, v := Slot(rng.Intn(window+8)), View(rng.Intn(3))
				cs.Commits.put(CommitCert{View: v, Slot: s, Req: Request{Client: 200, Num: uint64(v), Payload: []byte{byte(i), byte(s)}}})
			}
			var err error
			if certs[i], err = newReplicaCert(ids.ID(i), encodeCertifiedState(&cs), xcrypto.Cert{}); err != nil {
				t.Fatal(err)
			}
		}
		plan := planOf(certs)
		for s := Slot(0); s < window+10; s++ {
			got, gotAny := plan.mustPropose(s)
			want, wantAny := scanMustPropose(s, certs)
			if gotAny != wantAny || got.Client != want.Client || got.Num != want.Num || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("set %d slot %d: plan says %+v (any=%v), the scan %+v (any=%v)", set, s, got, gotAny, want, wantAny)
			}
		}
	}
}

func TestCertifySigCache(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	dg := req.Digest()
	proc := sim.NewProc(rig.eng, "signer")
	st := xcrypto.Certify(0, 0, dg)
	sig := rig.reg.Signer(1).Sign(proc, st.Bytes())
	if !r.verifyCertifySig(0, 0, dg, 1, sig) {
		t.Fatal("valid share rejected")
	}
	busy := r.proc.BusyUntil()
	// Second verification must hit the cache: no crypto charge.
	if !r.verifyCertifySig(0, 0, dg, 1, sig) {
		t.Fatal("cached share rejected")
	}
	if r.proc.BusyUntil() != busy {
		t.Fatal("cache miss: crypto charged twice for the same share")
	}
	// A corrupted signature must not hit the cache.
	bad := append(xcrypto.Signature(nil), sig...)
	bad[0] ^= 1
	if r.verifyCertifySig(0, 0, dg, 1, bad) {
		t.Fatal("corrupted share accepted")
	}
}

// TestCommitBelowCheckpointOpensNoRecord: a COMMIT's CERTIFY signature about
// a slot below the stable checkpoint is verified and judged like any other,
// but opens no slot record (admits): pruneBelow forgot that slot, and a
// share about it must not bring it back. The verified share is kept in
// Replica.settled until the next stable checkpoint, so the same COMMIT
// arriving again costs no second verification, as when it opened a record.
// A share at the checkpoint still joins its slot's record.
func TestCommitBelowCheckpointOpensNoRecord(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	r.chkpt.Seq = 64
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	dg := req.Digest()
	proc := sim.NewProc(rig.eng, "signer")
	sign := func(s Slot) xcrypto.Signature {
		st := xcrypto.Certify(0, uint64(s), dg)
		return rig.reg.Signer(1).Sign(proc, st.Bytes())
	}
	verifications := func() uint64 {
		c, u := rig.reg.Verifications()
		return c + u
	}
	slots := len(r.slots)
	for i, want := range []uint64{1, 0} {
		n := verifications()
		if !r.verifyCertifySig(0, 10, dg, 1, sign(10)) {
			t.Fatalf("valid share below the checkpoint rejected (arrival %d)", i)
		}
		if got := verifications() - n; got != want {
			t.Fatalf("share below the checkpoint, arrival %d: %d verifications, want %d", i, got, want)
		}
		if len(r.slots) != slots || r.slots[10] != nil {
			t.Fatalf("share below the checkpoint opened a slot record: %d records, want %d", len(r.slots), slots)
		}
	}
	bad := append(xcrypto.Signature(nil), sign(10)...)
	bad[0] ^= 1
	if n := verifications(); r.verifyCertifySig(0, 10, dg, 1, bad) || verifications() != n+1 || len(r.slots) != slots {
		t.Fatal("forged share below the checkpoint not verified, accepted or kept")
	}
	if !r.verifyCertifySig(0, 64, dg, 1, sign(64)) || r.slots[64] == nil || !r.slots[64].find(0).shares.Has(1, dg, sign(64)) {
		t.Fatal("share at the checkpoint not kept in its slot's record")
	}
	r.pruneBelow(64)
	if len(r.settled) != 0 {
		t.Fatalf("%d settled share sets outlive the stable checkpoint", len(r.settled))
	}
}

// TestCheckpointCertCountsKnownSharesOnly: a CHECKPOINT certificate is judged
// against the shares this replica verified on its crypto pool. Signatures by
// replicas it holds no share of go to the pool as relayed shares and the
// message waits (the Wait verdict). Once the pool has settled them, a
// certificate the collector could not certify is verified on the main
// process, known shares counted as good and every other signature checked: a
// known share beside a forged signature proves one signer, not f+1. One the
// collector certified costs the main process nothing.
func TestCheckpointCertCountsKnownSharesOnly(t *testing.T) {
	const seq = Slot(32) // the rig's first checkpoint; nothing executed
	const oneVerify = sim.Time(latmodel.VerifyCost + latmodel.CryptoDispatchCost)
	dg := xcrypto.DigestNoCharge([]byte("state"))
	st := xcrypto.CertifyCheckpoint(uint64(seq), dg)
	sign := func(rig *wbRig, id ids.ID) xcrypto.Signature {
		return rig.reg.Signer(id).Sign(sim.NewProc(rig.eng, "signing"), st.Bytes())
	}
	frame := func(sigs xcrypto.Cert) []byte {
		w := wire.NewWriter(256)
		w.U8(tagCheckpoint)
		cp := Checkpoint{Seq: seq, StateDigest: dg, Sigs: sigs}
		cp.encode(w)
		return w.Finish()
	}
	for _, tc := range []struct {
		name    string
		sigs    func(known, genuine, forged xcrypto.Signature) xcrypto.Cert
		want    ctbcast.Verdict
		waits   bool
		charged sim.Time // verifications on the main process, after the wait
	}{
		{"known share + forged signature", func(k, g, f xcrypto.Signature) xcrypto.Cert { return certOf(map[ids.ID]xcrypto.Signature{1: k, 2: f}) }, ctbcast.Reject, true, 1},
		{"known share + its own copy elsewhere", func(k, g, f xcrypto.Signature) xcrypto.Cert { return certOf(map[ids.ID]xcrypto.Signature{1: k, 2: k}) }, ctbcast.Reject, true, 1},
		{"known share + a stranger's signature", func(k, g, f xcrypto.Signature) xcrypto.Cert { return certOf(map[ids.ID]xcrypto.Signature{1: k, 7: g}) }, ctbcast.Reject, false, 0},
		{"the known signer's share, altered", func(k, g, f xcrypto.Signature) xcrypto.Cert { return certOf(map[ids.ID]xcrypto.Signature{1: f, 2: f}) }, ctbcast.Reject, true, 2},
		{"known share + genuine signature", func(k, g, f xcrypto.Signature) xcrypto.Cert { return certOf(map[ids.ID]xcrypto.Signature{1: k, 2: g}) }, ctbcast.Accept, true, 0},
	} {
		rig := newWBRig(t)
		r := rig.reps[0]
		// Replica 0 alone: its peers' own CHECKPOINTs must not advance the
		// state its verdicts are judged against.
		rig.net.Partition(0, 1)
		rig.net.Partition(0, 2)
		known, genuine := sign(rig, 1), sign(rig, 2)
		forged := append(xcrypto.Signature(nil), genuine...)
		forged[0] ^= 1
		r.onCertifyCheckpoint(1, seq, dg, known)
		rig.eng.RunFor(sim.Millisecond)
		if c := r.cps[seq]; c == nil || !c.shares.Has(1, dg, known) || r.chkpt.Seq != 0 {
			t.Fatalf("one verified share: record %+v, stable checkpoint %d", r.cps[seq], r.chkpt.Seq)
		}
		// Delivered as replica 1's next message, waiting as a CTBcast group
		// would.
		m := frame(tc.sigs(known, genuine, forged))
		v, charged := r.onConsensusMsg(1, m), sim.Time(0)
		waited := v == ctbcast.Wait
		if waited {
			rig.eng.RunFor(sim.Millisecond)
			if r.state[1].cpWait.Seq != 0 {
				t.Fatalf("%s: still waiting with the crypto pool idle", tc.name)
			}
			busy := max(r.proc.BusyUntil(), rig.eng.Now())
			v = r.onConsensusMsg(1, m)
			charged = (max(r.proc.BusyUntil(), rig.eng.Now()) - busy) / oneVerify
		}
		if v != tc.want || r.cps[seq].verified != (tc.want == ctbcast.Accept) {
			t.Errorf("%s: verdict %d, want %d; certified %v", tc.name, v, tc.want, r.cps[seq].verified)
		}
		if waited != tc.waits || charged != tc.charged {
			t.Errorf("%s: waited %v (want %v), then %d verifications on the main process (want %d)", tc.name, waited, tc.waits, charged, tc.charged)
		}
		rig.stop()
	}
}

// TestCheckpointForgedShareCostsOneVerification: with a replica's own
// CERTIFY_CHECKPOINT share in, the certificate lacks one share, so of two peer
// shares only the first goes to the crypto pool and the second is held. A
// forged first share costs the pool exactly one more verification: the held
// share is verified next and the certificate forms from it.
func TestCheckpointForgedShareCostsOneVerification(t *testing.T) {
	const seq = Slot(32) // the rig's first checkpoint; nothing executed
	const oneVerify = sim.Time(latmodel.VerifyCost + latmodel.CryptoDispatchCost)
	dg := xcrypto.DigestNoCharge([]byte("state"))
	for _, forgedFirst := range []bool{false, true} {
		rig := newWBRig(t)
		r := rig.reps[0]
		rig.net.Partition(0, 1)
		rig.net.Partition(0, 2)
		signing := sim.NewProc(rig.eng, "signing")
		st := xcrypto.CertifyCheckpoint(uint64(seq), dg)
		sign := func(id ids.ID) xcrypto.Signature { return rig.reg.Signer(id).Sign(signing, st.Bytes()) }
		first, second := sign(1), sign(2)
		if forgedFirst {
			first[0] ^= 1
		}
		start := max(r.bgProc.BusyUntil(), rig.eng.Now())
		r.onCertifyCheckpoint(0, seq, dg, sign(0))
		r.onCertifyCheckpoint(1, seq, dg, first)
		r.onCertifyCheckpoint(2, seq, dg, second)
		if got := r.bgProc.BusyUntil() - start; got != oneVerify {
			t.Fatalf("two peer shares sent %v of work to the pool, want one verification (%v)", got, oneVerify)
		}
		rig.eng.RunFor(sim.Millisecond)
		want, signer := oneVerify, ids.ID(1)
		if forgedFirst {
			want, signer = 2*oneVerify, 2
		}
		sigs := maps.Collect(r.chkpt.Sigs.All())
		if got := r.bgProc.BusyUntil() - start; got != want || r.chkpt.Seq != seq || len(sigs) != 2 || sigs[signer] == nil {
			t.Errorf("forged first share %v: pool busy %v (want %v), stable checkpoint %d signed by %v",
				forgedFirst, got, want, r.chkpt.Seq, sortedKeys(sigs))
		}
		rig.stop()
	}
}

// TestForgedCheckpointBlocksItsChannelAfterTheWait: a CHECKPOINT whose
// certificate holds a forged signature, sent on a replica's own CTBcast
// channel, waits at every receiver while the pool checks it, is refused once
// the pool has, and leaves the channel blocked with what was queued behind it
// never applied.
func TestForgedCheckpointBlocksItsChannelAfterTheWait(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	byz := rig.reps[1]
	signing := sim.NewProc(rig.eng, "signing")
	const seq = Slot(32)
	dg := xcrypto.DigestNoCharge([]byte("state"))
	st := xcrypto.CertifyCheckpoint(uint64(seq), dg)
	forged := rig.reg.Signer(2).Sign(signing, st.Bytes())
	forged[0] ^= 1
	w := wire.NewWriter(256)
	w.U8(tagCheckpoint)
	(&Checkpoint{Seq: seq, StateDigest: dg, Sigs: certOf(map[ids.ID]xcrypto.Signature{
		1: rig.reg.Signer(1).Sign(signing, st.Bytes()),
		2: forged,
	})}).encode(w)
	byz.groups[1].Broadcast(w.Finish())
	byz.groups[1].Broadcast(sealFrame(1))

	waited := false
	for deadline := rig.eng.Now().Add(sim.Millisecond); rig.eng.Now() < deadline && rig.eng.Step(); {
		waited = waited || rig.reps[0].state[1].cpWait.Seq == seq
	}
	if !waited {
		t.Error("the CHECKPOINT never waited for the crypto pool")
	}
	for _, i := range []int{0, 2} {
		r := rig.reps[i]
		if !r.groups[1].Blocked() || r.state[1].view != 0 || r.state[1].cpWait.Seq != 0 || r.chkpt.Seq != 0 {
			t.Errorf("replica %d: channel blocked %v, replica 1's view %d, wait %d, stable checkpoint %d",
				i, r.groups[1].Blocked(), r.state[1].view, r.state[1].cpWait.Seq, r.chkpt.Seq)
		}
	}
}

// TestCertifyCheckpointTrustsOwnChannelOnly: a replica takes the
// CERTIFY_CHECKPOINT share self-delivered on its own channel without
// verifying it, and nothing else: the same bytes on a peer's channel are the
// peer's share and go through the crypto pool, whatever they claim.
func TestCertifyCheckpointTrustsOwnChannelOnly(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	const seq = Slot(32)
	dg := xcrypto.DigestNoCharge([]byte("state"))
	// Replica 0's genuine share: valid for signer 0, for nobody else.
	st := xcrypto.CertifyCheckpoint(uint64(seq), dg)
	own := rig.reg.Signer(0).Sign(sim.NewProc(rig.eng, "signing"), st.Bytes())
	w := wire.NewWriter(128)
	w.U8(tagCertifyCP)
	w.U64(uint64(seq))
	w.Raw(dg[:])
	w.Bytes(own)
	frame := w.Finish()

	pool := r.bgProc.BusyUntil()
	r.onAuxMsg(1, frame)
	rig.eng.RunFor(sim.Millisecond)
	if c := r.cps[seq]; c != nil && len(maps.Collect(c.shares.Cert(dg).All())) != 0 {
		t.Fatalf("replica 0's share arriving on replica 1's channel counts: %+v", c.shares)
	}
	if r.bgProc.BusyUntil() == pool {
		t.Fatal("a share on a peer's channel was not verified on the crypto pool")
	}
	pool = r.bgProc.BusyUntil()
	r.onAuxMsg(0, frame)
	if c := r.cps[seq]; c == nil || !c.shares.Has(0, dg, own) || r.bgProc.BusyUntil() != pool {
		t.Fatalf("own share on the own channel: record %+v, pool charged %v", r.cps[seq], r.bgProc.BusyUntil()-pool)
	}
}

func TestStateTransferRejectsForgedSnapshot(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	// Pretend a checkpoint at 32 with a known digest is stable.
	var dg [xcrypto.DigestLen]byte
	good := []byte("genuine-snapshot")
	dg = xcrypto.DigestNoCharge(good)
	r.chkpt = Checkpoint{Seq: 32, StateDigest: dg}
	// A Byzantine replica responds with a forged snapshot.
	w := wire.NewWriter(64)
	w.U8(router.ChanDirect)
	w.U8(tagStateResp)
	w.U64(32)
	w.Bytes([]byte("forged-snapshot"))
	frame := w.Finish()
	r.onDirect(ids.ID(1), frame)
	if r.lastApplied >= 32 {
		t.Fatal("forged snapshot adopted")
	}
	// The genuine one is accepted.
	w2 := wire.NewWriter(64)
	w2.U8(router.ChanDirect)
	w2.U8(tagStateResp)
	w2.U64(32)
	w2.Bytes(good)
	r.onDirect(ids.ID(1), w2.Finish())
	if r.lastApplied != 32 {
		t.Fatalf("genuine snapshot not adopted: lastApplied=%d", r.lastApplied)
	}
}

func TestClientImpersonationRejected(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[0]
	// A request claiming to be from client 200 but sent by node 1.
	req := Request{Client: 200, Num: 1, Payload: []byte("fake")}
	w := wire.NewWriter(64)
	w.U8(tagRequest)
	req.encode(w)
	r.onRPC(ids.ID(1), w.Finish())
	if len(r.requests) != 0 {
		t.Fatal("impersonated request stored")
	}
}

// A Byzantine leader's batch container: one holding something other than
// client requests (another container, the no-op filler, trailing garbage)
// is refused by the PREPARE check, which blocks the leader's channel; the
// well-formed but hostile shapes are handled where they meet state — a
// sub-request no follower holds withholds the endorsement (the §5.4 echo
// rule, per sub-request), a repeated sub-request executes once.
func TestValidateMalformedBatchRejected(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[1]
	a := Request{Client: 200, Num: 1, Payload: []byte("a")}
	b := Request{Client: 201, Num: 1, Payload: []byte("b")}
	prep := func(slot Slot, req Request) []byte {
		return EncodePrepare(Prepare{View: 0, Slot: slot, Req: req})
	}
	if !r.accepts(ids.ID(0), prep(0, EncodeBatch([]Request{a, b}))) {
		t.Fatal("well-formed batch rejected")
	}
	if r.accepts(ids.ID(0), prep(1, EncodeBatch([]Request{a, EncodeBatch([]Request{b})}))) {
		t.Fatal("nested batch validated")
	}
	if r.accepts(ids.ID(0), prep(2, EncodeBatch([]Request{a, NoOp()}))) {
		t.Fatal("batch carrying the no-op filler validated")
	}
	trailing := EncodeBatch([]Request{a, b})
	trailing.Payload = append(trailing.Payload, 0)
	if r.accepts(ids.ID(0), prep(3, trailing)) {
		t.Fatal("batch with trailing bytes validated")
	}
	short := EncodeBatch([]Request{a, b})
	short.Payload = short.Payload[:len(short.Payload)-1]
	if r.accepts(ids.ID(0), prep(4, short)) || r.subs(&short) != nil {
		t.Fatal("truncated batch validated or decoded")
	}
}

func TestBatchWithUnknownSubRequestNotEndorsed(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[1]
	known := Request{Client: 200, Num: 1, Payload: []byte("sent")}
	forged := Request{Client: 200, Num: 2, Payload: []byte("never sent")}
	held := r.request(known.Digest())
	held.req, held.held = known, true
	if !r.accepts(ids.ID(0), EncodePrepare(Prepare{View: 0, Slot: 0, Req: EncodeBatch([]Request{known, forged})})) {
		t.Fatal("well-formed batch rejected")
	}
	ss := r.slots[0]
	if ss == nil || ss.waitingReq == nil || ss.sent(0, sentWillCertify) {
		t.Fatal("batch endorsed although this replica never received one of its sub-requests")
	}
	// The client's copy arriving later releases it.
	w := wire.NewWriter(64)
	w.U8(tagRequest)
	forged.encode(w)
	r.onRPC(forged.Client, w.Finish())
	if ss.waitingReq != nil || !ss.sent(0, sentWillCertify) {
		t.Fatal("batch still withheld with every sub-request held")
	}
}

func TestBatchWithRepeatedSubRequestExecutesOnce(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[1]
	req := Request{Client: 200, Num: 1, Payload: []byte("once")}
	r.decide(0, 0, EncodeBatch([]Request{req, req}))
	if r.lastApplied != 1 || r.Executed != 1 {
		t.Fatalf("slot with a repeated sub-request: applied %d slots, executed %d requests, want 1 and 1", r.lastApplied, r.Executed)
	}
}

// TestExecWindow pins the exactly-once record: a number below the
// high-water mark is a duplicate only if it executed, the window slides
// with the mark, and what falls out of it counts as executed.
func TestExecWindow(t *testing.T) {
	var e execEntry
	for _, n := range []uint64{1, 2, 5} {
		if e.has(n) {
			t.Fatalf("%d reported executed before it was", n)
		}
		e = e.executedAt(n, Slot(n), []byte{byte(n)}, false)
	}
	for n, want := range map[uint64]bool{1: true, 2: true, 3: false, 4: false, 5: true, 6: false} {
		if e.has(n) != want {
			t.Errorf("after 1,2,5: has(%d) = %v", n, !want)
		}
	}
	e = e.executedAt(3, 9, []byte("late"), false) // a late first execution
	if !e.has(3) || e.has(4) || e.num != 5 || e.res[0] != 5 || e.slot != 5 {
		t.Fatalf("late execution of 3: %+v", e)
	}
	e = e.executedAt(5+execWindow, 10, nil, false)
	if !e.has(5) || e.has(4+execWindow) || !e.has(4) {
		t.Fatalf("after sliding by the window: 5 kept %v, %d unexecuted %v, 4 (out of window) executed %v",
			e.has(5), 4+execWindow, !e.has(4+execWindow), e.has(4))
	}
	e = e.executedAt(e.num+execWindow+1, 11, nil, false)
	if e.below != 0 {
		t.Fatalf("jump past the window kept bits %b", e.below)
	}
}

// TestLeaderElectCertifiesBeforeSealing: the leader of view 1 collects f+1
// certified replica states before it has sealed view 1 itself. It joins the
// view then (onCertifyVC), starts it when its seal lands (maybeSeal), and
// sends one NEW_VIEW; a state certified after that opens nothing again.
func TestLeaderElectCertifiesBeforeSealing(t *testing.T) {
	rig := newMsgFuzzRig(t)
	defer rig.stop()
	leader := rig.reps[1]
	newViews := map[uint64]bool{} // CTBcast identifiers of the NEW_VIEWs replica 0 is sent
	rig.net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		if ch, payload := router.Split(frame); from == 1 && to == 0 && ch == router.ChanRing {
			if f, ok := msgring.ParseFrame(payload); ok {
				if owner, kind := RingOf(3, f.Inst); owner == 1 && kind != RingAux {
					if m, ok := ctbcast.ParseMsg(f.Msg); ok && len(m.M) > 0 && m.M[0] == tagNewView {
						newViews[m.K] = true
					}
				}
			}
		}
		return simnet.Deliver, 0
	})
	certify := func(about ids.ID) {
		cs := CertifiedState{View: 1, Checkpoint: leader.chkpt}
		state := encodeCertifiedState(&cs)
		for _, signer := range []ids.ID{0, 2} {
			sig := rig.sigs(xcrypto.CertifyViewChange(1, about, state), signer)[signer]
			leader.onCertifyVC(signer, 1, about, state, sig)
		}
	}
	certify(0)
	if leader.view != 0 || leader.isSealing() {
		t.Fatalf("one certified state moved the leader-elect: view %d, sealing %v", leader.view, leader.isSealing())
	}
	certify(2)
	if rec := leader.views[1]; leader.view != 1 || rec == nil || !rec.opened || rec.pending != nil {
		t.Fatalf("after f+1 certified states: view %d, record %+v; want view 1 opened", leader.view, rec)
	}
	certify(1)
	rig.eng.RunFor(sim.Millisecond)
	if len(newViews) != 1 {
		t.Errorf("%d NEW_VIEWs sent to replica 0, want 1", len(newViews))
	}
	if st := rig.reps[0].state[1]; !st.planned || st.planView != 1 {
		t.Errorf("replica 0 holds no plan of view 1 from its leader (planned %v, view %d)", st.planned, st.planView)
	}
}

// TestRejoinedLeaderProposesNothingInItsResumeView: a replica that resumed
// after a cold rejoin never leads the view it resumed in (noLeadView), even
// when that view is its own: a request queued there sends no PREPARE, where
// the same request at a replica that did not rejoin does.
func TestRejoinedLeaderProposesNothingInItsResumeView(t *testing.T) {
	for _, rejoined := range []bool{false, true} {
		rig := newWBRig(t)
		leader := rig.reps[0]
		if rejoined {
			leader.noLeadView, leader.noLeadSet = leader.view, true
		}
		leader.enqueueProposal(Request{Client: 200, Num: 1, Payload: []byte("x")})
		rig.eng.RunFor(sim.Millisecond)
		prepared := len(rig.reps[1].state[0].prepares)
		rig.stop()
		switch {
		case rejoined && prepared != 0:
			t.Errorf("a rejoined leader sent %d PREPAREs in its resume view", prepared)
		case !rejoined && prepared != 1:
			t.Fatalf("a leader that did not rejoin sent %d PREPAREs, want 1", prepared)
		}
	}
}
