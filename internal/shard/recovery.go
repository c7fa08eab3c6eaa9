package shard

import (
	"repro/internal/app"
	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
)

// This file is the driver side of 2PC commit-phase recovery. The inherent
// blocking case of txn.go: a participant that voted yes and then missed the
// commit fan-out past the driver's bounded retry backoff keeps its locks,
// and the client retains no transaction state to redeliver from. The
// RecoveryAgent closes that gap by replaying the coordinator group's
// decision log:
//
//  1. Sweep: ask every replica of every group for its prepared-but-
//     undecided transactions (the staged-hint scan of
//     internal/consensus/recovery.go). Hints are unordered and advisory.
//  2. Agree: a transaction counts as stranded only when f+1 distinct
//     replicas of the SAME group report the same (txid, coordinator) —
//     at least one of them is correct, so a lone Byzantine replica cannot
//     fabricate a stranded transaction or misdirect the query — and only
//     after MinSightings consecutive sweeps, so a transaction merely in
//     flight between prepare and commit is not aborted under its driver.
//  3. Resolve: an ordered OpTxnQueryDecision at the coordinator group
//     returns the logged decision — or tombstones the undecided txid as
//     aborted (query-or-abort), which a straggling commit decide then
//     loses to via the decision log's first-write rule — and the matching
//     ordered OpTxnCommit/OpTxnAbort at the stranded group releases the
//     locks on every replica.
//
// Everything that mutates state is an ordinary consensus-ordered command,
// so recovery cannot diverge replicas; the sweep itself can at worst waste
// a query.

// recoveryIDBase is the recovery agent's host ID (disjoint from replicas,
// memory nodes and clients by the package ID layout).
const recoveryIDBase = 300_000

// defaultMinSightings is how many consecutive sweeps must report a
// transaction stranded before the agent moves to resolve it.
const defaultMinSightings = 2

// stagedKey identifies one stranded-transaction candidate: the group
// holding the locks, the transaction, and its coordinator group.
type stagedKey struct {
	group int
	txid  uint64
	coord uint64
}

// RecoveryAgent sweeps the deployment for stranded 2PC participants and
// resolves them through the coordinator group's decision log. Sweeps are
// explicit (SweepNow) so deterministic tests control the cadence; a
// deployment wanting background recovery arms its own timer around it.
type RecoveryAgent struct {
	cc       *consensus.Client
	rt       *router.Router
	proc     *sim.Proc
	f        int
	groups   [][]ids.ID
	repGroup map[ids.ID]int

	// MinSightings is how many consecutive sweeps must report a candidate
	// before resolution starts (default 2; tests may lower it to 1).
	MinSightings int

	nonce     uint64
	sweep     map[stagedKey]map[ids.ID]bool // current sweep's reporters
	sightings map[stagedKey]int             // consecutive agreeing sweeps
	seen      map[stagedKey]bool            // agreed this sweep (for decay)
	inFlight  map[stagedKey]bool

	resolved  uint64
	committed uint64
	aborted   uint64
}

// NewRecoveryAgent wires an agent onto its host router (the shard layer
// builds one when Options.Recovery is set).
func NewRecoveryAgent(rt *router.Router, groups [][]ids.ID, f int) *RecoveryAgent {
	ra := &RecoveryAgent{
		cc:           consensus.NewMultiClient(rt, groups, f, consensus.Defenses{}),
		rt:           rt,
		proc:         rt.Node().Proc(),
		f:            f,
		groups:       groups,
		repGroup:     make(map[ids.ID]int),
		MinSightings: defaultMinSightings,
		sightings:    make(map[stagedKey]int),
		inFlight:     make(map[stagedKey]bool),
	}
	for g, reps := range groups {
		for _, rep := range reps {
			ra.repGroup[rep] = g
		}
	}
	rt.Register(router.ChanDirect, ra.onDirect)
	return ra
}

// SweepNow starts one hint-scan round: every replica of every group is
// asked for its staged transactions. Responses accumulate asynchronously;
// candidates that keep their f+1 agreement across MinSightings sweeps are
// resolved. Run the engine after calling (responses and the resolution
// commands are ordinary virtual-time traffic).
func (ra *RecoveryAgent) SweepNow() {
	// Decay first: a candidate that failed to re-earn agreement in the
	// PREVIOUS sweep lost its streak (its transaction resolved, or the
	// reports never were quorum-backed).
	for k := range ra.sightings {
		if !ra.seen[k] && !ra.inFlight[k] {
			delete(ra.sightings, k)
		}
	}
	ra.nonce++
	ra.sweep = make(map[stagedKey]map[ids.ID]bool)
	ra.seen = make(map[stagedKey]bool)
	frame := consensus.EncodeStagedQuery(ra.nonce)
	for _, reps := range ra.groups {
		for _, rep := range reps {
			ra.rt.Send(rep, router.ChanDirect, frame)
		}
	}
}

// Resolved reports how many stranded transactions the agent has driven to
// an ordered commit/abort (and how many of each), for tests and metrics.
func (ra *RecoveryAgent) Resolved() (total, committed, aborted uint64) {
	return ra.resolved, ra.committed, ra.aborted
}

// onDirect collects one replica's hint-scan response.
func (ra *RecoveryAgent) onDirect(from ids.ID, payload []byte) {
	nonce, staged, ok := consensus.DecodeStagedResp(payload)
	if !ok || nonce != ra.nonce {
		return // stale round, or not a staged-hint response
	}
	g, known := ra.repGroup[from]
	if !known {
		return
	}
	for _, tx := range staged {
		if tx.Coord >= uint64(len(ra.groups)) {
			continue // nonsense coordinator: unresolvable, ignore the hint
		}
		k := stagedKey{group: g, txid: tx.Txid, coord: tx.Coord}
		set := ra.sweep[k]
		if set == nil {
			set = make(map[ids.ID]bool)
			ra.sweep[k] = set
		}
		set[from] = true
		// Exactly-once per sweep: act when the f+1'th distinct replica of
		// the group lands (later reporters of the same sweep change nothing).
		if len(set) == ra.f+1 && !ra.seen[k] {
			ra.seen[k] = true
			ra.sightings[k]++
			if ra.sightings[k] >= ra.MinSightings && !ra.inFlight[k] {
				ra.inFlight[k] = true
				ra.resolve(k)
			}
		}
	}
}

// resolve replays the coordinator group's decision for one stranded
// transaction, then drives the ordered commit/abort at the group holding
// the locks. Both steps are consensus-ordered and idempotent (Commit and
// Abort tolerate redelivery), so overlap with a late client retry is safe.
func (ra *RecoveryAgent) resolve(k stagedKey) {
	ra.cc.InvokeGroup(int(k.coord), app.EncodeTxnQueryDecision(k.txid), func(res []byte, _ sim.Duration) {
		commit, ok := app.DecodeTxnQueryDecision(res)
		if !ok {
			// The coordinator group refused (non-recoverable app there, or
			// a malformed reply won the quorum — impossible for correct
			// replicas). Clear in-flight so a later sweep retries.
			delete(ra.inFlight, k)
			return
		}
		cmd := app.EncodeTxnAbort(k.txid)
		if commit {
			cmd = app.EncodeTxnCommit(k.txid)
		}
		ra.cc.InvokeGroup(k.group, cmd, func([]byte, sim.Duration) {
			ra.resolved++
			if commit {
				ra.committed++
			} else {
				ra.aborted++
			}
			delete(ra.inFlight, k)
			delete(ra.sightings, k)
		})
	})
}
