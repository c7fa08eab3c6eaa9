package ctbcast

import (
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file implements CTBcast summaries (paper §5.2, Algorithm 4).
//
// A summary is an unforgeable synopsis of the messages a broadcaster has
// CTBcast up to identifier id: a state blob produced by the upper layer's
// Capture hook, certified by f+1 receivers. Summaries restore FIFO delivery
// across tail-validity gaps (a receiver that missed messages applies the
// certified state instead) and gate the broadcaster: every t/2 identifiers
// it blocks until the next summary certificate exists, which is the
// double-buffering the paper uses to avoid latency hiccups (footnote 3)
// and the mechanism behind Figure 11's thrashing at small t.

// SummaryHub routes CERTIFY_SUMMARY shares arriving at one host to the
// broadcaster groups living there. One per host.
type SummaryHub struct {
	groups map[msgring.Instance]*Group
}

// NewSummaryHub installs the hub on the host's summary channel.
func NewSummaryHub(rt *router.Router) *SummaryHub {
	h := &SummaryHub{groups: make(map[msgring.Instance]*Group)}
	rt.Register(router.ChanSummary, h.onShare)
	return h
}

func (h *SummaryHub) register(inst msgring.Instance, g *Group) {
	if _, dup := h.groups[inst]; dup {
		panic(fmt.Sprintf("ctbcast: summary instance %d registered twice", inst))
	}
	h.groups[inst] = g
}

func (h *SummaryHub) onShare(from ids.ID, payload []byte) {
	r := wire.NewReader(payload)
	inst := msgring.Instance(r.U32())
	id := r.U64()
	// Views of a frame nothing writes once sent (afterFIFODeliver): if
	// onSummaryShare keeps the share, it copies the state and keeps sig.
	state := r.BytesView()
	sig := r.BytesView()
	if r.Done() != nil {
		return
	}
	g := h.groups[inst]
	if g == nil || g.p.Self != g.p.Broadcaster {
		return
	}
	g.onSummaryShare(from, id, state, sig)
}

// afterFIFODeliver runs the receiver half of Algorithm 4: after delivering
// the message whose identifier crosses a t/2 boundary, capture the upper
// layer's state and send a signed certificate share to the broadcaster.
func (g *Group) afterFIFODeliver(k uint64) {
	if k%uint64(g.halfT) != 0 {
		return
	}
	var state []byte
	if g.p.Capture != nil {
		state = g.p.Capture(k)
	}
	// Bookkeeping signature: signed on the crypto pool so the main event
	// loop (and hence the fast path) never blocks (§3.2, §5.4). The
	// broadcaster's own share counts as soon as it is signed.
	stmt := xcrypto.SummaryShare(g.p.Broadcaster, k, state)
	g.env.Signer.SignBg(g.env.BgProc, g.env.Proc, stmt.Bytes(), xcrypto.Job{ID: k, State: state}, g.ownShareFn)
}

// summaryShares collects the shares of one summary id, over the state each
// certifies. Its share storage is kept from one summary to the next.
type summaryShares struct {
	id     uint64
	shares xcrypto.Shares[string]
	// state is the state the first share of id carried, copied once: every
	// correct share carries the same (own).
	state string
}

// collector returns the collector of open summary id, taking over the slot
// of an id no longer open.
func (g *Group) collector(id uint64) *summaryShares {
	c := &g.shareStates[id/uint64(g.halfT)%2]
	if c.id != id {
		c.release()
		c.id = id
	}
	return c
}

// release drops the collector's shares and state, which hold views of
// summary-sized frames, and keeps the shares' storage.
func (c *summaryShares) release() {
	clear(c.shares)
	c.shares, c.state = c.shares[:0], ""
}

// own returns a share's state as a string the collector may keep: a copy
// for the first share, the first share's copy for a share that carries the
// same state, a new copy for one that does not.
func (c *summaryShares) own(state []byte) string {
	if len(c.shares) == 0 {
		c.state = string(state)
	} else if string(state) != c.state {
		return string(state)
	}
	return c.state
}

// ownShare takes this member's share of summary j.ID, signed on the crypto
// pool, to the broadcaster: the broadcaster counts its own at once.
func (g *Group) ownShare(j *xcrypto.Job) {
	k, state, sig := j.ID, j.State, j.Sig
	if g.p.Self == g.p.Broadcaster {
		if g.summaryOpen(k) {
			c := g.collector(k)
			owned := c.own(state)
			g.tallySummary(k, owned, c.shares.Add(g.p.Self, owned, sig))
		}
		return
	}
	// One frame of exact size, never written again: the broadcaster keeps a
	// view of its signature, so it is not one from router.Frame.
	w := wire.NewWriter(1 + 4 + 8 + wire.BytesLen(len(state)) + wire.BytesLen(len(sig)))
	w.U8(router.ChanSummary)
	w.U32(uint32(g.p.InstanceBase))
	w.U64(k)
	w.Bytes(state)
	w.Bytes(sig)
	g.env.RT.SendFrame(g.p.Broadcaster, w.Finish())
}

// summaryOpen reports whether the broadcaster still collects shares for id:
// a t/2 boundary above the last certified summary that it has broadcast up
// to. The double buffer stops it t identifiers past the last summary, so at
// most two identifiers are open at a time, one in each shareStates slot.
func (g *Group) summaryOpen(id uint64) bool {
	return id > g.lastSummary && id < g.nextK && id%uint64(g.halfT) == 0
}

// onSummaryShare runs at the broadcaster: collect matching shares until f+1
// distinct receivers certify the same (id, state), then Tail-Broadcast the
// certificate and unblock pending broadcasts. A share is verified on the
// crypto pool, and only while the certificate still needs it (xcrypto.Shares);
// state is only borrowed.
func (g *Group) onSummaryShare(from ids.ID, id uint64, state []byte, sig xcrypto.Signature) {
	if !g.summaryOpen(id) || !slices.Contains(g.p.Procs, from) {
		return
	}
	c := g.collector(id)
	if owned := c.own(state); c.shares.Offer(from, owned, sig, g.p.F+1, false) {
		g.verifySummaryShare(from, id, owned, sig)
	}
}

// verifySummaryShare checks a share on the crypto pool (it is bookkeeping,
// not fast path) and tallies the verdict.
func (g *Group) verifySummaryShare(from ids.ID, id uint64, state string, sig xcrypto.Signature) {
	stmt := xcrypto.SummaryShare(g.p.Broadcaster, id, state)
	g.env.Signer.VerifyBg(g.env.BgProc, g.env.Proc, stmt.Bytes(), xcrypto.Job{ID: id, From: from, Val: state, Sig: sig}, g.shareVerdictFn)
}

// shareVerdict tallies the crypto pool's verdict on a share.
func (g *Group) shareVerdict(j *xcrypto.Job) {
	if g.summaryOpen(j.ID) {
		g.tallySummary(j.ID, j.Val, g.collector(j.ID).shares.Verdict(j.From, j.Sig, j.OK))
	}
}

// tallySummary certifies (id, state) once n, the verified shares over it,
// reach f+1; short of that it hands the pool the held shares the certificate
// still needs.
func (g *Group) tallySummary(id uint64, state string, n int) {
	shares := g.collector(id).shares
	if n < g.p.F+1 {
		for from, st, sig, ok := shares.Next(g.p.F + 1); ok; from, st, sig, ok = shares.Next(g.p.F + 1) {
			g.verifySummaryShare(from, id, st, sig)
		}
		return
	}
	// Certificate complete: broadcast it and advance the summary window. The
	// writer is sized once for the whole SUMMARY, its certificate holding at
	// most one signature per member; the group's encode buffer would keep a
	// buffer the size of a summary alive after the ring frame copied it.
	w := wire.NewWriter(1 + 8 + wire.BytesLen(len(state)) + 1 + len(g.p.Procs)*(8+wire.BytesLen(xcrypto.SigLen)))
	appendSummary(w, id, state, shares)
	g.bcast.Broadcast(w.Finish())
	g.lastSummary = id
	// Release the collectors of every id this summary covers; one left from
	// a restart's jump of lastSummary goes here too.
	for i := range g.shareStates {
		if c := &g.shareStates[i]; c.id <= id {
			c.release()
		}
	}
	g.pumpBroadcast()
}

// onSummaryCert runs at receivers: verify the certificate and, if this
// receiver has a gap at or before id, apply the summary and resume FIFO
// delivery after id (Algorithm 4 lines 11-15).
func (g *Group) onSummaryCert(id uint64, state []byte, cert xcrypto.Cert) {
	if g.byzBlocked {
		return
	}
	if g.p.Self == g.p.Broadcaster && id > g.lastSummary {
		// A broadcaster restarting from a peer-certified summary.
		g.lastSummary = id
	}
	if g.nextDeliver > id {
		return // no gap: the certificate is irrelevant, skip verification
	}
	// The certificate is actually needed to heal a gap: verify its f+1
	// signatures (on the critical recovery path, so charged to the main
	// process like the paper's slow path).
	if stmt := xcrypto.SummaryShare(g.p.Broadcaster, id, state); !g.env.Signer.Valid(g.env.Proc, g.p.Procs, stmt.Bytes(), cert, g.p.F+1) {
		return // forged certificate from a Byzantine broadcaster
	}
	if g.nextDeliver > id {
		return
	}
	g.SummariesUsed++
	// What the summary covers goes first, a message waiting for its verdict
	// included (it was at or below id): the upper layer may resume this
	// channel while it applies the summary, and must find nothing to judge.
	for k := range g.pendingFIFO {
		if k <= id {
			delete(g.pendingFIFO, k)
		}
	}
	g.waiting = false
	if g.p.ApplySummary != nil {
		g.p.ApplySummary(id, state)
	}
	g.nextDeliver = id + 1
	g.drainFIFO()
}
