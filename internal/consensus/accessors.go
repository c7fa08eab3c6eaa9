package consensus

import (
	"fmt"
	"strings"
)

// Accessors used by tests, the benchmark harness and the memory-consumption
// accounting (Table 2).

// Checkpoint returns the replica's current stable checkpoint.
func (r *Replica) Checkpoint() Checkpoint { return r.chkpt }

// Footprint is the cardinality of every table a stable checkpoint prunes —
// what the finite-memory claim bounds by the window. The bounded-memory
// tests read it.
type Footprint struct {
	Slots       int // per-slot records
	Requests    int // per-request records: client copies, echo sets, dedup stubs
	Clients     int // per-client records
	Checkpoints int // per-checkpoint records: a constant few, whatever the window
	Deferred    int // wait-queue responses still owed
	Queued      int // requests waiting in the leader's proposal queue
}

// Footprint counts the replica's prunable state.
func (r *Replica) Footprint() Footprint {
	return Footprint{
		Slots: len(r.slots), Requests: len(r.requests), Clients: len(r.clients),
		Checkpoints: len(r.cps), Deferred: len(r.deferredResp), Queued: len(r.proposeQ),
	}
}

// Progress summarizes the replica's pipeline position for stall
// diagnostics: the next slot this replica would propose into, the highest
// slot executed, the stable checkpoint floor, and how many PREPAREs are
// parked waiting for their client request copy.
func (r *Replica) Progress() (nextSlot, lastExec, chkptSeq Slot, waiting int) {
	for _, ss := range r.slots {
		if ss.waitingReq != nil {
			waiting++
		}
	}
	return r.nextSlot, r.lastApplied, r.chkpt.Seq, waiting
}

// StallReport renders the pipeline state of every slot between the last
// applied one and the proposal frontier — which slots are decided, and per
// view the slot saw the votes collected (as n-bit masks, replica 0
// rightmost) and what this replica sent (WILL_CERTIFY, WILL_COMMIT,
// CERTIFY, COMMIT, rightmost first), which wait for a client request copy —
// for the wall-clock harness's wedge diagnostics.
func (r *Replica) StallReport() string {
	var b strings.Builder
	hi := r.nextSlot
	if hi > r.lastApplied+8 {
		hi = r.lastApplied + 8
	}
	n := r.cfg.n()
	for s := r.lastApplied; s <= hi; s++ {
		ss := r.slots[s]
		fmt.Fprintf(&b, "[s%d dec=%v", s, ss != nil && ss.decided)
		if ss != nil {
			for _, sv := range ss.views {
				fmt.Fprintf(&b, " v%d certify=%0*b commit=%0*b sent=%04b", sv.v, n, sv.willCertify, n, sv.willCommit, sv.sent)
			}
			fmt.Fprintf(&b, " wait=%v fb=%v", ss.waitingReq != nil, ss.fallback.Pending())
		}
		b.WriteString("] ")
	}
	return b.String()
}

// Groups exposes per-broadcaster CTBcast statistics.
func (r *Replica) GroupStats() (fast, slow, summaries uint64) {
	for _, g := range r.groups {
		fast += g.FastDeliveries
		slow += g.SlowDeliveries
		summaries += g.SummariesUsed
	}
	return
}

// DisaggregatedBytes returns this replica's share of disaggregated memory
// on ONE memory node: the SWMR regions of all its CTBcast groups.
func (r *Replica) DisaggregatedBytes() int {
	total := 0
	for _, g := range r.groups {
		total += g.AllocatedDisaggregatedBytes()
	}
	// Every replica participates in the same n groups; the per-node total
	// is shared, so report it once (groups are identical across replicas).
	return total / r.cfg.n()
}

// LocalBytes approximates this replica's preallocated local memory: ring
// mirrors and buffers of all broadcast channels plus per-window request
// buffers. This drives the Table 2 reproduction.
func (r *Replica) LocalBytes() int {
	total := 0
	for _, g := range r.groups {
		total += g.AllocatedLocalBytes()
	}
	total += r.auxOut.AllocatedBytes()
	// Window request buffers (prepares, commits, certified state) at
	// MsgCap granularity, for every peer.
	total += r.cfg.Window * r.cfg.MsgCap * r.cfg.n()
	return total
}

// LateProposals counts requests proposed below their client's highest
// already-proposed number — the EchoTimeout path completing after its
// successors (diagnostics for pipelined clients; see enqueueProposal).
func (r *Replica) LateProposals() uint64 { return r.lateProposals }
