package shard

import (
	"repro/internal/app"
	"repro/internal/consensus"
	"repro/internal/sim"
)

// This file is 2PC commit-phase recovery. The inherent blocking case of
// txn.go: a participant that voted yes and then missed the commit fan-out
// past the driver's bounded retry backoff keeps its locks, and the driver
// retains no transaction state to redeliver from. Any client can release
// them by replaying the coordinator group's decision log, and every step is
// one more ordered command of the OpTxn* envelope:
//
//  1. Sweep: one OpTxnListStaged per group lists its prepared-but-undecided
//     transactions with their coordinator groups. The answer is a function
//     of replicated state at one slot, so the client's ordinary f+1
//     matching-response quorum vouches for it: a lone Byzantine replica can
//     neither fabricate a stranded transaction nor misdirect the query.
//  2. Wait: a transaction counts as stranded only when two consecutive
//     sweeps list it, so one merely in flight between prepare and commit is
//     not aborted under its driver. The caller's sweep cadence is the grace
//     period.
//  3. Resolve: OpTxnQueryDecision at the coordinator group returns the
//     logged decision — or tombstones the undecided txid as aborted
//     (query-or-abort). A straggling commit decide then loses to the
//     tombstone by the decision log's first-write rule: it installs
//     nothing at the coordinator, and its driver aborts. The matching
//     OpTxnCommit/OpTxnAbort at the stranded group releases the locks on
//     every replica. Both go through retryFanout; a step that exhausts its
//     rounds leaves the transaction to a later sweep.
//
// Commit and Abort tolerate redelivery, so overlap with a late driver retry
// or with another sweeping client is safe; the sweep can at worst waste a
// query.

// stagedKey identifies one stranded-transaction candidate: the group
// holding the locks, the transaction, and its coordinator group.
type stagedKey struct {
	group int
	txid  uint64
	coord uint64
}

// recovery is the sweep-and-resolve state of one client, made by its first
// sweep.
type recovery struct {
	lists    []uint64           // per group, the latest sweep's list request
	prev     map[stagedKey]bool // listed by the previous sweep
	cur      map[stagedKey]bool // listed by the latest sweep
	inFlight map[stagedKey]bool // being resolved

	resolved, committed, aborted uint64
}

// SweepStranded asks every group for its staged transactions and starts
// resolving those the previous sweep listed too. Sweeps are explicit so
// deterministic tests control the cadence (a deployment wanting background
// recovery arms its own timer around it); a list request the previous sweep
// never got answered is abandoned. Run the engine after calling: the
// answers and the resolving commands are ordinary virtual-time traffic.
func (c *Client) SweepStranded() {
	if !c.canTxn {
		return // no transactions, and 0xF0.. may be the application's own opcodes
	}
	if c.rec == nil {
		c.rec = &recovery{lists: make([]uint64, c.shards), inFlight: make(map[stagedKey]bool)}
	}
	rec := c.rec
	rec.prev, rec.cur = rec.cur, make(map[stagedKey]bool)
	for g := range rec.lists {
		c.cc.Cancel(rec.lists[g])
		rec.lists[g] = c.cc.Call(g, app.EncodeTxnListStaged(nil), consensus.Mode{}, func(res []byte, _ sim.Duration) {
			staged, _ := app.DecodeTxnListStaged(res)
			for _, tx := range staged {
				if tx.Coord >= uint64(c.shards) {
					continue // nonsense coordinator: unresolvable
				}
				k := stagedKey{group: g, txid: tx.Txid, coord: tx.Coord}
				rec.cur[k] = true
				if rec.prev[k] && !rec.inFlight[k] {
					c.resolveStranded(k)
				}
			}
		})
	}
}

// StrandedResolved reports how many stranded transactions this client's
// sweeps drove to an acknowledged commit or abort, and how many of each.
func (c *Client) StrandedResolved() (total, committed, aborted uint64) {
	if c.rec == nil {
		return 0, 0, 0
	}
	return c.rec.resolved, c.rec.committed, c.rec.aborted
}

// resolveStranded replays the coordinator group's decision for one stranded
// transaction at the group holding its locks.
func (c *Client) resolveStranded(k stagedKey) {
	c.rec.inFlight[k] = true
	coord := [1]int{int(k.coord)}
	c.retryFanout(stepSweepQuery, nil, k, coord[:], k.txid)
}

// sweepQueried takes the coordinator group's decision and sends it to the
// stranded group.
func (c *Client) sweepQueried(k stagedKey, res []byte) {
	commit, ok := app.DecodeTxnQueryDecision(res)
	if !ok {
		delete(c.rec.inFlight, k) // unanswered (or refused) in every round
		return
	}
	group := [1]int{k.group}
	if commit {
		c.retryFanout(stepSweepCommit, nil, k, group[:], k.txid)
	} else {
		c.retryFanout(stepSweepAbort, nil, k, group[:], k.txid)
	}
}

// sweepResolved counts a stranded transaction the stranded group
// acknowledged as committed or aborted.
func (c *Client) sweepResolved(k stagedKey, commit, acked bool) {
	rec := c.rec
	delete(rec.inFlight, k)
	if !acked {
		return
	}
	rec.resolved++
	if commit {
		rec.committed++
	} else {
		rec.aborted++
	}
}
