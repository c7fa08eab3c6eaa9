package consensus

// Fuzz targets for the adversarial read wire surface: a Byzantine peer
// controls every byte of ChanRPC traffic (the channel carries no checksum
// and no signature by design — the quorum rules are the defense), so the
// decoders on both ends must shrug off arbitrary bytes. The client-side
// target additionally pins the harness's core invariant down at the unit
// level: ONE hostile reply — any bytes, any tag, any claimed version — can
// never ratchet the monotonic read floor, because ratcheting requires an
// f+1 class and a lone liar can contribute at most one vote.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// sinkRig wires one client against 2f+1 sink replica nodes (IDs 0..2f:
// frames are routed but nothing answers), so a test plays every replica's
// replies by hand through Client.onRPC.
func sinkRig(t *testing.T, f int) (*Client, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.RDMAOptions())
	var repIDs []ids.ID
	for id := ids.ID(0); int(id) < 2*f+1; id++ {
		repIDs = append(repIDs, id)
		router.New(net.AddNode(id, fmt.Sprintf("sink%d", id)))
	}
	crt := router.New(net.AddNode(ids.ID(200), "client"))
	return NewClient(crt, repIDs), eng
}

// clientFuzzRig is the three-replica sinkRig with one ordered request, one
// fast read (on its first rung: replicas 2 and 0 asked, 1 not) and one
// strong read already pending, so hostile replies can reach the tally
// paths.
func clientFuzzRig(t *testing.T) *Client {
	t.Helper()
	c, _ := sinkRig(t, 1)
	c.Call(0, []byte("w"), Mode{}, func([]byte, sim.Duration) {})                         // num 1
	c.Call(0, []byte("r"), Mode{Read: true}, func([]byte, sim.Duration) {})               // num 2
	c.Call(0, []byte("s"), Mode{Read: true, Strong: true}, func([]byte, sim.Duration) {}) // num 3
	return c
}

// encodeReply builds a well-formed tag-31/33 reply, channel tag stripped —
// the seed corpus, so the fuzzer starts from frames that reach deep into the
// tally logic (matching nums, served flags, huge versions) instead of
// bouncing off the truncation checks.
func encodeReply(tag uint8, num, version uint64, flags uint8, result []byte) []byte {
	return wholeReply(tag, num, version, flags, result)[1:]
}

// wholeReply is encodeReply's reply as a whole fresh frame, channel tag
// first, as Client.onRPC takes it.
func wholeReply(tag uint8, num, version uint64, flags uint8, result []byte) []byte {
	w := wire.NewWriter(64)
	w.U8(router.ChanRPC)
	w.U8(tag)
	w.U64(num)
	w.U64(version)
	w.U8(flags)
	w.Bytes(result)
	return w.Finish()
}

// FuzzClientReadReply delivers one attacker-controlled ChanRPC frame to a
// client with pending ordered and read requests. Must never panic, and the
// read floor must stay exactly 0: no single reply completes an f+1 class,
// so nothing a lone Byzantine replica sends may move it.
func FuzzClientReadReply(f *testing.F) {
	f.Add(uint8(0), encodeReply(tagResponse, 1, 7, 0, []byte("ok")))
	f.Add(uint8(1), encodeReply(tagResponse, 1, 1<<40, respFlagParked, []byte{5}))
	f.Add(uint8(2), encodeReply(tagReadResponse, 2, 1<<40, readFlagServed, []byte("forged")))
	f.Add(uint8(0), encodeReply(tagReadResponse, 2, 9, readFlagServed|readFlagCrossed, nil))
	f.Add(uint8(1), encodeReply(tagReadResponse, 2, 3, 0, nil)) // refusal
	f.Add(uint8(2), encodeReply(tagReadResponse, 3, 1<<62, readFlagServed, []byte("strong-forge")))
	// Replica 1 was not asked on the read's first rung: an unsolicited
	// vote, an unsolicited refusal, and replies to a number nobody holds.
	f.Add(uint8(1), encodeReply(tagReadResponse, 2, 1<<40, readFlagServed, []byte("guessed")))
	f.Add(uint8(1), encodeReply(tagReadResponse, 2, 0, 0, nil))
	f.Add(uint8(1), encodeReply(tagReadResponse, 64, 1<<40, readFlagServed, []byte("late")))
	f.Add(uint8(0), encodeReply(tagReadResponse, 0, 0, readFlagServed, nil))
	f.Add(uint8(0), []byte{tagReadResponse, 0x02}) // truncated
	f.Add(uint8(1), []byte{tagResponse})           // tag only
	f.Add(uint8(2), []byte{})                      // empty
	f.Fuzz(func(t *testing.T, fromSel uint8, data []byte) {
		c := clientFuzzRig(t)
		c.onRPC(ids.ID(fromSel%3), append([]byte{router.ChanRPC}, data...))
		if got := c.ReadFloor(0); got != 0 {
			t.Fatalf("one hostile reply inflated the read floor to %d", got)
		}
	})
}

// FuzzReplicaReadRequest delivers one attacker-controlled ChanRPC frame to
// a live replica (tag-30 ordered submissions and tag-32 fast reads share
// the channel). Must never panic — including pins far past execution,
// which park bounded and time out, never trusting the claimed version.
func FuzzReplicaReadRequest(f *testing.F) {
	readReq := func(num, at uint64, payload []byte) []byte {
		w := wire.NewWriter(64)
		w.U8(tagReadRequest)
		w.U64(num)
		w.U64(at)
		w.Bytes(payload)
		return w.Finish()
	}
	f.Add(readReq(1, 0, []byte{0}))
	f.Add(readReq(2, 1<<40, []byte("pin-the-future")))
	f.Add(readReq(3, 0, nil))
	f.Add([]byte{tagReadRequest, 0x01})
	f.Add([]byte{tagRequest, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rig := newWBRig(t)
		defer rig.stop()
		router.New(rig.net.AddNode(ids.ID(200), "client-sink"))
		rig.reps[0].onRPC(ids.ID(200), data)
		rig.eng.RunFor(time200us())
	})
}

// msgFuzzRig is a white-box rig whose replica 2 has been brought, by
// deliveries it accepted, to one of four points of a Byzantine leader's
// channel, so that a fuzzed frame can reach every branch of onConsensusMsg:
//
//	stage 0: nothing delivered; replica 0 leads view 0
//	stage 1: replica 1 sealed view 1, which it leads
//	stage 2: ... and opened it with a NEW_VIEW (PREPAREs meet its plan)
//	stage 3: ... or sent the first chunk of that NEW_VIEW as a 2-chunk train
type msgFuzzRig struct {
	*wbRig
	signing *sim.Proc
}

func newMsgFuzzRig(t testing.TB) *msgFuzzRig {
	rig := newWBRig(t)
	return &msgFuzzRig{wbRig: rig, signing: sim.NewProc(rig.eng, "signing")}
}

func (rig *msgFuzzRig) cert(st xcrypto.Statement, signers ...ids.ID) xcrypto.Cert {
	return certOf(rig.sigs(st, signers...))
}

func (rig *msgFuzzRig) sigs(st xcrypto.Statement, signers ...ids.ID) map[ids.ID]xcrypto.Signature {
	sigs := make(map[ids.ID]xcrypto.Signature)
	for _, id := range signers {
		sigs[id] = rig.reg.Signer(id).Sign(rig.signing, st.Bytes())
	}
	return sigs
}

// certOf encodes sigs as a certificate.
func certOf(sigs map[ids.ID]xcrypto.Signature) xcrypto.Cert {
	var s xcrypto.Shares[int]
	for id, sig := range sigs {
		s.Add(id, 0, sig)
	}
	return s.Cert(0)
}

// withRepeatedSigner replaces the empty certificate that ends frame with one
// that lists sig twice under signer: what no correct process sends.
func withRepeatedSigner(frame []byte, signer ids.ID, sig xcrypto.Signature) []byte {
	w := wire.NewWriter(len(frame) + 2*(9+len(sig)))
	w.Raw(frame[:len(frame)-1])
	w.Uvarint(2)
	for range 2 {
		w.I64(int64(signer))
		w.Bytes(sig)
	}
	return w.Finish()
}

// plannedReq is what the rig's NEW_VIEW obliges view 1's leader to propose
// in slot 2 (slots 0 and 1 get the no-op, slot 3 and up are free).
var plannedReq = Request{Client: 200, Num: 7, Payload: []byte("planned")}

func sealFrame(v View) []byte {
	w := wire.NewWriter(16)
	w.U8(tagSealView)
	w.U64(uint64(v))
	return w.Finish()
}

// newViewFrame is a NEW_VIEW of view 1 every check passes: replicas 0 and
// 1's states as of view 1, each attested by replicas 0 and 2.
func (rig *msgFuzzRig) newViewFrame() []byte {
	nv := NewViewMsg{View: 1}
	for about := ids.ID(0); about < 2; about++ {
		cs := CertifiedState{View: 1, Checkpoint: rig.reps[0].chkpt}
		if about == 0 {
			cs.Commits = commitLog{{View: 0, Slot: 2, Req: plannedReq}}
		}
		state := encodeCertifiedState(&cs)
		nv.Certs = append(nv.Certs, ReplicaCert{About: about, StateBytes: state, Sigs: rig.cert(xcrypto.CertifyViewChange(1, about, state), 0, 2)})
	}
	return encodeNewView(nv)
}

// newViewTrain is newViewFrame as a two-chunk fragment train.
func (rig *msgFuzzRig) newViewTrain() (first, last []byte) {
	b := rig.newViewFrame()
	half := len(b) / 2
	return encodeNewViewFrag(nvFrag{view: 1, idx: 0, total: 2, chunk: b[:half]}),
		encodeNewViewFrag(nvFrag{view: 1, idx: 1, total: 2, chunk: b[half:]})
}

// advance delivers the stage's preamble to replica 2 and returns the
// broadcaster whose next message the fuzzed frame is.
func (rig *msgFuzzRig) advance(t *testing.T, stage uint8) ids.ID {
	if stage == 0 {
		return 0
	}
	preamble := [][]byte{sealFrame(1)}
	switch stage {
	case 2:
		preamble = append(preamble, rig.newViewFrame())
	case 3:
		first, _ := rig.newViewTrain()
		preamble = append(preamble, first)
	}
	for i, m := range preamble {
		if !rig.reps[2].accepts(1, m) {
			t.Fatalf("stage %d: preamble message %d rejected", stage, i)
		}
	}
	return 1
}

// channelState renders everything a rejected message must leave alone:
// state[p] with its fragment train, the replica's view and window, and the
// slot table. The verified-share caches are left out (a slot's view records
// that hold no vote and no sent bit count as absent, and so do slot records
// that hold nothing else): a signature verified inside a frame that fails
// for another reason is verified all the same, and stays cached. A slot
// record is compared with a fresh record of its slot, so a protocol field set
// anywhere shows.
func channelState(r *Replica, p ids.ID) string {
	st := r.state[p]
	out := fmt.Sprintf("%+v | view=%d seal=%d chkpt=%d next=%d applied=%d views=%d |",
		*st, r.view, r.sealTarget, r.chkpt.Seq, r.nextSlot, r.lastApplied, len(r.views))
	for _, s := range sortedKeys(r.slots) {
		ss := *r.slots[s]
		var voted []slotView
		for _, sv := range ss.views {
			if sv.willCertify|sv.willCommit != 0 || sv.sent != 0 {
				sv.shares = nil
				voted = append(voted, sv)
			}
		}
		ss.views, ss.r = voted, nil
		if !reflect.DeepEqual(ss, freshSlot(s)) {
			out += fmt.Sprintf(" %d:%+v", s, ss)
		}
	}
	return out
}

// freshSlot is the record slot s gets from an empty free list, its replica
// and its (empty) view storage left out: reflect.DeepEqual tells a nil slice
// from an empty one.
func freshSlot(s Slot) slotState {
	ss := *(&Replica{slots: make(table[Slot, slotState])}).slot(s)
	ss.r, ss.views = nil, nil
	return ss
}

// FuzzConsensusMsg hands arbitrary bytes to onConsensusMsg as the next
// delivery of a Byzantine leader's channel, at each of msgFuzzRig's stages.
// It must never panic, and a message it rejects must have changed nothing
// (channelState).
func FuzzConsensusMsg(f *testing.F) {
	rig := newMsgFuzzRig(f)
	req := Request{Client: 200, Num: 1, Payload: []byte("x")}
	prep := func(v View, s Slot, req Request) []byte { return EncodePrepare(Prepare{View: v, Slot: s, Req: req}) }
	commit := func(sigs xcrypto.Cert) []byte {
		w := wire.NewWriter(256)
		w.U8(tagCommit)
		(&CommitCert{View: 0, Slot: 0, Req: req, Sigs: sigs}).encode(w)
		return w.Finish()
	}
	checkpoint := func(cp Checkpoint) []byte {
		w := wire.NewWriter(256)
		w.U8(tagCheckpoint)
		cp.encode(w)
		return w.Finish()
	}
	cpDigest := xcrypto.DigestNoCharge([]byte("state"))
	first, last := rig.newViewTrain()
	sub := Request{Client: 201, Num: 1, Payload: []byte("b")}
	trailing, short := EncodeBatch([]Request{req, sub}), EncodeBatch([]Request{req, sub})
	trailing.Payload = append(trailing.Payload, 0)
	short.Payload = short.Payload[:len(short.Payload)-1]
	rig.stop()

	// One frame per tag that is accepted at its stage.
	f.Add(uint8(0), prep(0, 0, req))
	f.Add(uint8(0), prep(0, 1, EncodeBatch([]Request{req, sub})))
	f.Add(uint8(0), commit(rig.cert(xcrypto.Certify(0, 0, req.Digest()), 1, 2)))
	f.Add(uint8(0), checkpoint(Checkpoint{Seq: 32, StateDigest: cpDigest, Sigs: rig.cert(xcrypto.CertifyCheckpoint(32, cpDigest), 1, 2)}))
	f.Add(uint8(0), sealFrame(1))
	f.Add(uint8(1), rig.newViewFrame())
	f.Add(uint8(1), first)
	f.Add(uint8(3), last)
	f.Add(uint8(2), prep(1, 2, plannedReq))
	f.Add(uint8(2), prep(1, 0, NoOp()))
	f.Add(uint8(2), prep(1, 3, req))
	// The malformed frames of byzantine_test.go and messages_test.go, and
	// the accepted ones where they do not belong.
	f.Add(uint8(1), prep(0, 0, req))      // not the view its sender declared
	f.Add(uint8(1), prep(1, 0, req))      // view 1 before its NEW_VIEW
	f.Add(uint8(2), prep(1, 2, req))      // not what the plan obliges
	f.Add(uint8(2), prep(1, 1, req))      // a request where the plan has the no-op
	f.Add(uint8(0), prep(0, 999, NoOp())) // outside the window
	f.Add(uint8(0), prep(0, 1, EncodeBatch([]Request{req, EncodeBatch([]Request{sub})})))
	f.Add(uint8(0), prep(0, 2, EncodeBatch([]Request{req, NoOp()})))
	f.Add(uint8(0), prep(0, 3, trailing))
	f.Add(uint8(0), prep(0, 4, short))
	f.Add(uint8(0), commit(certOf(map[ids.ID]xcrypto.Signature{1: make(xcrypto.Signature, xcrypto.SigLen), 2: make(xcrypto.Signature, xcrypto.SigLen)})))
	f.Add(uint8(0), commit(rig.cert(xcrypto.Certify(0, 0, req.Digest()), 1))) // one genuine share is cached, the frame fails
	f.Add(uint8(0), checkpoint(Checkpoint{Seq: 0}))
	f.Add(uint8(0), checkpoint(Checkpoint{Seq: 32}))
	forgedCP := rig.sigs(xcrypto.CertifyCheckpoint(32, cpDigest), 1, 2)
	forgedCP[2] = slices.Clone(forgedCP[2])
	forgedCP[2][0] ^= 1
	f.Add(uint8(0), checkpoint(Checkpoint{Seq: 32, StateDigest: cpDigest, Sigs: certOf(forgedCP)})) // waits for the pool, then fails
	// One genuine share listed twice under its signer.
	f.Add(uint8(0), withRepeatedSigner(commit(xcrypto.Cert{}), 1, rig.sigs(xcrypto.Certify(0, 0, req.Digest()), 1)[1]))
	f.Add(uint8(0), withRepeatedSigner(checkpoint(Checkpoint{Seq: 32, StateDigest: cpDigest}), 1, rig.sigs(xcrypto.CertifyCheckpoint(32, cpDigest), 1)[1]))
	f.Add(uint8(0), []byte{tagSealView})
	f.Add(uint8(0), []byte{0xEE, 1, 2, 3})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(2), rig.newViewFrame()) // a second NEW_VIEW for the view, before anything used the first
	f.Add(uint8(2), first)              // ... or the head of its train
	f.Add(uint8(0), rig.newViewFrame()) // a NEW_VIEW in a view not declared
	f.Add(uint8(3), first)              // the train starts over
	f.Add(uint8(1), last)               // a tail without its head: discarded, not Byzantine
	f.Add(uint8(3), last[:len(last)-1])
	f.Add(uint8(3), encodeNewViewFrag(nvFrag{view: 1, idx: 1, total: 2, chunk: []byte("not the rest of it")}))
	f.Add(uint8(1), encodeNewViewFrag(nvFrag{view: 1, idx: 0, total: 1, chunk: []byte("x")}))
	f.Add(uint8(1), encodeNewViewFrag(nvFrag{view: 1, idx: 4, total: 4, chunk: []byte("x")}))
	f.Add(uint8(1), encodeNewViewFrag(nvFrag{view: 1, idx: 0, total: 2}))
	f.Add(uint8(1), encodeNewViewFrag(nvFrag{view: 1, idx: 0, total: 1 << 20, chunk: []byte("x")}))

	f.Fuzz(func(t *testing.T, stage uint8, data []byte) {
		rig := newMsgFuzzRig(t)
		defer rig.stop()
		r := rig.reps[2]
		// Replica 2 alone: while a message waits for the crypto pool, what its
		// peers send must not move the state it is judged against.
		rig.net.Partition(2, 0)
		rig.net.Partition(2, 1)
		p := rig.advance(t, stage%4)
		before := channelState(r, p)
		data = slices.Clone(data) // accepted frames are retained by reference
		v := r.onConsensusMsg(p, data)
		if v == ctbcast.Wait {
			// The crypto pool settles what the message waits on; the channel
			// then judges it again.
			rig.eng.RunFor(time200us())
			if r.state[p].cpWait.Seq != 0 {
				t.Fatalf("stage %d: still waiting with the crypto pool idle", stage%4)
			}
			v = r.onConsensusMsg(p, data)
		}
		if v == ctbcast.Reject {
			if after := channelState(r, p); after != before {
				t.Fatalf("stage %d: a rejected message changed the replica\nbefore: %s\nafter:  %s", stage%4, before, after)
			}
		}
		rig.eng.RunFor(time200us())
	})
}

// time200us keeps the fuzz body free of literal sim arithmetic noise.
func time200us() sim.Duration { return 200 * sim.Microsecond }
