package consensus

import (
	"bytes"
	"maps"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

func TestRequestRoundTrip(t *testing.T) {
	req := Request{Client: 200, Num: 42, Payload: []byte("payload")}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Client != req.Client || got.Num != req.Num || !bytes.Equal(got.Payload, req.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestNoOpRequest(t *testing.T) {
	n := NoOp()
	if !n.IsNoOp() {
		t.Fatal("NoOp not recognized")
	}
	if (Request{Client: 5}).IsNoOp() {
		t.Fatal("real request flagged as noop")
	}
	got, err := DecodeRequest(EncodeRequest(n))
	if err != nil || !got.IsNoOp() {
		t.Fatalf("noop round trip: %+v %v", got, err)
	}
}

func TestRequestDigestBindsAllFields(t *testing.T) {
	base := Request{Client: 1, Num: 2, Payload: []byte("p")}
	same := Request{Client: 1, Num: 2, Payload: []byte("p")}
	if base.Digest() != same.Digest() {
		t.Fatal("digest not deterministic")
	}
	for _, other := range []Request{
		{Client: 2, Num: 2, Payload: []byte("p")},
		{Client: 1, Num: 3, Payload: []byte("p")},
		{Client: 1, Num: 2, Payload: []byte("q")},
	} {
		if base.Digest() == other.Digest() {
			t.Fatalf("digest collision with %+v", other)
		}
	}
}

func TestPrepareRoundTrip(t *testing.T) {
	p := Prepare{View: 3, Slot: 77, Req: Request{Client: 9, Num: 1, Payload: []byte("x")}}
	got, err := DecodePrepare(EncodePrepare(p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.View != 3 || got.Slot != 77 || got.Req.Client != 9 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestCommitCertRoundTrip(t *testing.T) {
	c := CommitCert{
		View: 1, Slot: 5,
		Req: Request{Client: 9, Num: 2, Payload: []byte("req")},
		Sigs: certOf(map[ids.ID]xcrypto.Signature{
			0: bytes.Repeat([]byte{1}, xcrypto.SigLen),
			2: bytes.Repeat([]byte{2}, xcrypto.SigLen),
		}),
	}
	w := wire.NewWriter(256)
	c.encode(w)
	got, err := decodeCommitCert(wire.NewReader(w.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	sigs := maps.Collect(got.Sigs.All())
	if got.View != 1 || got.Slot != 5 || len(sigs) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if !bytes.Equal(sigs[2], bytes.Repeat([]byte{2}, xcrypto.SigLen)) {
		t.Fatal("sigs lost")
	}
}

func TestCheckpointRoundTripAndSupersedes(t *testing.T) {
	cp := Checkpoint{Seq: 256}
	copy(cp.StateDigest[:], bytes.Repeat([]byte{7}, xcrypto.DigestLen))
	cp.Sigs = certOf(map[ids.ID]xcrypto.Signature{1: bytes.Repeat([]byte{9}, xcrypto.SigLen)})
	w := wire.NewWriter(128)
	cp.encode(w)
	got, err := decodeCheckpoint(wire.NewReader(w.Finish()))
	if err != nil || got.Seq != 256 || got.StateDigest != cp.StateDigest {
		t.Fatalf("round trip: %+v %v", got, err)
	}
	older := Checkpoint{Seq: 128}
	if !cp.Supersedes(&older) || older.Supersedes(&cp) || cp.Supersedes(&cp) {
		t.Fatal("Supersedes wrong")
	}
}

func TestCertifiedStateRoundTrip(t *testing.T) {
	cs := CertifiedState{
		View:       4,
		Checkpoint: Checkpoint{Seq: 100},
		Commits: commitLog{
			{View: 4, Slot: 101, Req: Request{Client: 1, Num: 1}},
			{View: 3, Slot: 105, Req: NoOp()},
		},
	}
	got, err := decodeCertifiedState(encodeCertifiedState(&cs))
	if err != nil {
		t.Fatal(err)
	}
	if got.View != 4 || len(got.Commits) != 2 || got.Commits.at(105).View != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	// A correct replica lists its commits in ascending slot order, once each.
	for _, slots := range [][]Slot{{105, 101}, {101, 101}} {
		cs.Commits[0].Slot, cs.Commits[1].Slot = slots[0], slots[1]
		if _, err := decodeCertifiedState(encodeCertifiedState(&cs)); err == nil {
			t.Errorf("a certified state listing slots %v decoded", slots)
		}
	}
}

func TestCertifiedStateEncodingDeterministic(t *testing.T) {
	// The summary/view-change machinery relies on byte-equal encodings
	// across replicas; the order commits and shares arrived in must not
	// leak in.
	state := func(slots []Slot) []byte {
		cs := CertifiedState{
			View:       1,
			Checkpoint: Checkpoint{Seq: 0, Sigs: certOf(map[ids.ID]xcrypto.Signature{2: {1}, 0: {2}, 1: {3}})},
		}
		for _, s := range slots {
			cs.Commits.put(CommitCert{Slot: s, Req: NoOp(),
				Sigs: certOf(map[ids.ID]xcrypto.Signature{1: {byte(s)}, 0: {byte(s + 1)}})})
		}
		return encodeCertifiedState(&cs)
	}
	var up, down []Slot
	for s := Slot(0); s < 20; s++ {
		up, down = append(up, s), append(down, 19-s)
	}
	a := state(up)
	for i := 0; i < 10; i++ {
		if !bytes.Equal(a, state(up)) || !bytes.Equal(a, state(down)) {
			t.Fatal("encoding depends on arrival order")
		}
	}
}

func TestNewViewRoundTrip(t *testing.T) {
	state := func(seq Slot) []byte {
		return encodeCertifiedState(&CertifiedState{View: 2, Checkpoint: Checkpoint{Seq: seq}})
	}
	nv := NewViewMsg{
		View: 2,
		Certs: []ReplicaCert{
			{About: 0, StateBytes: state(32), Sigs: certOf(map[ids.ID]xcrypto.Signature{1: {1}})},
			{About: 1, StateBytes: state(64), Sigs: certOf(map[ids.ID]xcrypto.Signature{2: {2}})},
		},
	}
	rd := wire.NewReader(encodeNewView(nv))
	if rd.U8() != tagNewView {
		t.Fatal("tag wrong")
	}
	got, err := decodeNewView(rd)
	if err != nil || rd.Done() != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.View != 2 || len(got.Certs) != 2 || got.Certs[1].About != 1 ||
		!bytes.Equal(got.Certs[1].StateBytes, state(64)) || got.Certs[1].State.Checkpoint.Seq != 64 {
		t.Fatalf("round trip: %+v", got)
	}
	// A certified state that does not decode fails the whole message.
	nv.Certs[1].StateBytes = []byte("s1")
	rd = wire.NewReader(encodeNewView(nv)[1:])
	if _, err := decodeNewView(rd); err == nil {
		t.Fatal("NEW_VIEW with an undecodable certified state decoded without error")
	}
}

func TestNewViewFragRoundTrip(t *testing.T) {
	f := nvFrag{view: 3, idx: 1, total: 4, chunk: []byte("chunk-bytes")}
	rd := wire.NewReader(encodeNewViewFrag(f))
	if rd.U8() != tagNewViewFrag {
		t.Fatal("tag wrong")
	}
	got, err := decodeNewViewFrag(rd)
	if err != nil || rd.Done() != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.view != 3 || got.idx != 1 || got.total != 4 || !bytes.Equal(got.chunk, f.chunk) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestNewViewFragRejectsMalformed(t *testing.T) {
	rig := newWBRig(t)
	defer rig.stop()
	r := rig.reps[1]
	bad := []nvFrag{
		{view: 0, idx: 0, total: 1, chunk: []byte("x")}, // 1-chunk train: must be monolithic
		{view: 0, idx: 4, total: 4, chunk: []byte("x")}, // idx out of range
		{view: 0, idx: 0, total: 2, chunk: nil},         // empty chunk
	}
	for i, f := range bad {
		if r.accepts(0, encodeNewViewFrag(f)) {
			t.Errorf("case %d: malformed fragment %+v accepted from the leader", i, f)
		}
	}
	// The shape is what was refused: the same frame well formed starts a train.
	if !r.accepts(0, encodeNewViewFrag(nvFrag{view: 0, idx: 0, total: 2, chunk: []byte("x")})) || r.state[0].nvNext != 1 {
		t.Errorf("well-formed first fragment refused: train %+v", r.state[0])
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	prop := func(garbage []byte) bool {
		// None of these may panic; errors are fine.
		_, _ = DecodePrepare(garbage)
		_, _ = decodeCommitCert(wire.NewReader(garbage))
		_, _ = decodeCheckpoint(wire.NewReader(garbage))
		_, _ = decodeCertifiedState(garbage)
		rd2 := wire.NewReader(garbage)
		_, _ = decodeNewView(rd2)
		_, _ = decodeNewViewFrag(wire.NewReader(garbage))
		_, _ = DecodeRequest(garbage)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedCertificatesRejected(t *testing.T) {
	// A Byzantine replica cannot make us allocate unbounded memory via a
	// huge signature count.
	w := wire.NewWriter(64)
	w.U64(0) // view
	w.U64(0) // slot
	NoOp().encode(w)
	w.Uvarint(1 << 20) // absurd signature count
	if _, err := decodeCommitCert(wire.NewReader(w.Finish())); err == nil {
		t.Fatal("oversized commit cert accepted")
	}
}

// TestCertifiedStateAllocatesOnce holds encodeCertifiedState to one
// allocation, its buffer sized from its commits up front (it grew a 256 B
// writer about a dozen times for a full window), and to bytes
// decodeCertifiedState reads back whole.
func TestCertifiedStateAllocatesOnce(t *testing.T) {
	cs := CertifiedState{
		View:       3,
		Checkpoint: Checkpoint{Seq: 64, Sigs: certOf(map[ids.ID]xcrypto.Signature{0: make(xcrypto.Signature, xcrypto.SigLen), 2: make(xcrypto.Signature, xcrypto.SigLen)})},
	}
	for s := Slot(64); s < 96; s++ {
		cs.Commits.put(CommitCert{View: 3, Slot: s, Req: Request{Client: 200, Num: uint64(s), Payload: bytes.Repeat([]byte{byte(s)}, int(s))},
			Sigs: certOf(map[ids.ID]xcrypto.Signature{1: make(xcrypto.Signature, xcrypto.SigLen), 0: bytes.Repeat([]byte{byte(s)}, xcrypto.SigLen)})})
	}
	cs.Commits.put(CommitCert{View: 2, Slot: 96, Req: NoOp()}) // an empty certificate
	var enc []byte
	if n := testing.AllocsPerRun(20, func() { enc = encodeCertifiedState(&cs) }); n != 1 {
		t.Fatalf("encodeCertifiedState allocates %.0f times, want 1", n)
	}
	if len(enc) != cap(enc) {
		t.Errorf("encoded %d bytes into a buffer of %d", len(enc), cap(enc))
	}
	got, err := decodeCertifiedState(enc)
	if err != nil || got.View != cs.View || got.Checkpoint.Seq != 64 || len(got.Commits) != len(cs.Commits) {
		t.Fatalf("round trip: %v, %+v", err, got)
	}
	if again := encodeCertifiedState(&got); !bytes.Equal(again, enc) {
		t.Fatal("the decoded state re-encodes to other bytes")
	}
}

// TestCommitIsItsCertificate has the leader of view 0 collect f+1 CERTIFY
// shares: the COMMIT onCertify appends the certificate into reaches both
// followers as the CommitCert of those shares, byte for byte.
func TestCommitIsItsCertificate(t *testing.T) {
	rig := newMsgFuzzRig(t)
	defer rig.stop()
	r := rig.reps[0]
	req := Request{Client: 200, Num: 1, Payload: []byte("a request")}
	dg := req.Digest()
	r.state[0].prepares[0] = Prepare{View: 0, Slot: 0, Req: req}
	sigs := rig.sigs(xcrypto.Certify(0, 0, dg), 0, 2)
	for _, p := range []ids.ID{2, 0} {
		r.onCertify(p, 0, 0, dg, sigs[p])
	}
	want := wire.NewWriter(0)
	(&CommitCert{View: 0, Slot: 0, Req: req, Sigs: certOf(sigs)}).encode(want)
	rig.eng.RunFor(sim.Millisecond / 2)
	for _, q := range rig.reps[1:] {
		c := q.state[0].commits.at(0)
		if c == nil {
			t.Fatalf("replica %d holds no COMMIT from the leader", q.cfg.Self)
		}
		got := wire.NewWriter(0)
		c.encode(got)
		if !bytes.Equal(got.Finish(), want.Finish()) {
			t.Fatalf("replica %d decoded COMMIT %x, want %x", q.cfg.Self, got.Finish(), want.Finish())
		}
	}
}
