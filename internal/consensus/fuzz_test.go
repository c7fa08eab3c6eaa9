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
	"testing"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
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
	return NewClient(crt, repIDs, f), eng
}

// clientFuzzRig is the three-replica sinkRig with one ordered request, one
// fast read (on its first rung: replicas 2 and 0 asked, 1 not) and one
// strong read already pending, so hostile replies can reach the tally
// paths.
func clientFuzzRig(t *testing.T) *Client {
	t.Helper()
	c, _ := sinkRig(t, 1)
	c.InvokeGroup(0, []byte("w"), func([]byte, sim.Duration) {})           // num 1
	c.InvokeGroupRead(0, []byte("r"), func([]byte, sim.Duration) {})       // num 2
	c.InvokeGroupReadStrong(0, []byte("s"), func([]byte, sim.Duration) {}) // num 3
	return c
}

// encodeReply builds a well-formed tag-31/33 frame — the seed corpus, so
// the fuzzer starts from frames that reach deep into the tally logic
// (matching nums, served flags, huge versions) instead of bouncing off the
// truncation checks.
func encodeReply(tag uint8, num, version uint64, flags uint8, result []byte) []byte {
	w := wire.NewWriter(64)
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
		c.onRPC(ids.ID(fromSel%3), data)
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

// time200us keeps the fuzz body free of literal sim arithmetic noise.
func time200us() sim.Duration { return 200 * sim.Microsecond }
