package shard

import (
	"repro/internal/app"
	"repro/internal/consensus"
	"repro/internal/sim"
)

// This file is the 2PC-style cross-shard commit protocol for multi-key
// writes spanning consensus groups. The shard-aware client drives the
// transaction generically: every protocol step is a command of the
// reserved OpTxn* envelope (internal/app/txn.go), itself consensus-ordered
// inside a group, so the lock/stage/commit state machine (the
// application's TxnParticipant hooks, backed by app.LockTable) is
// replicated and deterministic:
//
//  1. Prepare: one OpTxnPrepare per participant group carries that group's
//     fragment of the write; the participant locks the fragment's keys and
//     stages it, voting StatusOK (yes) or StatusConflict (no).
//  2. Decide: once every participant voted yes, the decision is logged as
//     an OpTxnDecide command in the coordinator group — deterministically
//     the minimum touched shard, itself a participant. That one ordered
//     command is the commit point (the decision is durable before any
//     other group applies it) and installs the coordinator's own fragment
//     (the coordinator-as-participant step of presumed-abort 2PC).
//  3. Commit: OpTxnCommit fans out to the other participants, which
//     install their staged fragments and release the locks. done fires
//     after all of them acknowledged, so a subsequent read anywhere
//     observes the whole transaction. A two-shard write thus takes four
//     ordered commands: two prepares, the decide and one commit.
//
// Aborts are presumed (no decision record): a StatusConflict vote or the
// PrepareTimeout expiring fires OpTxnAbort at every participant, with the
// in-flight prepares cancelled, so a stalled group cannot wedge the
// healthy ones; their locks release as soon as the abort is decided. The
// abort is retransmitted to unacknowledging participants for a bounded
// number of rounds (lossy networks must not strand locks), then given up
// on — no pending state outlives the retries. A decide that goes
// unacknowledged through every round may have installed the coordinator's
// fragment, so it never falls back to abort: the driver asks the
// coordinator group with OpTxnQueryDecision (query-or-abort) until it
// answers, and commits or aborts every participant as the answer says. A
// group that stalls *after* voting yes blocks its commit until it recovers
// — inherent to 2PC, and bounded here to the stalled group only; when that
// group is the coordinator and stalls before acknowledging the decide, the
// caller waits with it.

// txPhase tracks one cross-shard transaction through the protocol.
type txPhase uint8

const (
	txVoting     txPhase = iota // prepares in flight, timeout armed
	txCommitting                // all voted yes; decision + commits in flight
	txDone                      // outcome delivered to the caller
)

type txState struct {
	txid    uint64
	shards  []int
	started sim.Time
	done    func(result []byte, latency sim.Duration)

	phase   txPhase
	votes   int
	pending []uint64 // per-leg consensus request numbers (0 = answered)
	timer   sim.Timer
}

// beginTx splits the write across its participant groups (one fragment per
// touched shard) and starts the prepare phase. The txid is globally unique
// and deterministic: the client's host ID in the high bits, a per-client
// sequence in the low.
func (c *Client) beginTx(payload []byte, plan *splitPlan, done func(result []byte, latency sim.Duration)) error {
	frags, err := c.fragments(payload, plan)
	if err != nil {
		return err
	}
	c.txSeq++
	tx := &txState{
		txid:    uint64(c.id)<<32 | uint64(c.txSeq),
		shards:  plan.shards,
		started: c.cc.Proc().Now(),
		done:    done,
		pending: make([]uint64, len(plan.shards)),
	}
	coord := uint64(plan.shards[0])
	for i := range plan.shards {
		i := i
		tx.pending[i] = c.cc.Call(plan.shards[i], app.EncodeTxnPrepare(tx.txid, coord, frags[i]), consensus.Mode{},
			func(res []byte, _ sim.Duration) { c.onVote(tx, i, res) })
	}
	tx.timer = c.cc.Proc().After(PrepareTimeout, func() { c.abortTx(tx) })
	return nil
}

// onVote handles one participant's prepare vote.
func (c *Client) onVote(tx *txState, leg int, res []byte) {
	if tx.phase != txVoting {
		return
	}
	tx.pending[leg] = 0
	if len(res) == 0 || res[0] != app.StatusOK {
		c.abortTx(tx)
		return
	}
	tx.votes++
	if tx.votes == len(tx.shards) {
		c.decideTx(tx)
	}
}

// decideTx logs the commit decision in the coordinator group, which installs
// its own fragment with it, then fans the commit out to the other
// participants; done fires once all of them installed. Both steps are
// retransmitted (the same loss model the abort path defends against; see
// sendDecide for a decide no round acknowledged). Once the decision is
// logged the transaction IS committed, so
// commit retries that still go unacknowledged give up and report success —
// only the unreachable group's locks wait for its recovery (the inherent
// 2PC blocking case, scoped to that group).
func (c *Client) decideTx(tx *txState) {
	tx.phase = txCommitting
	tx.timer.Cancel()
	c.sendDecide(tx)
}

// sendDecide drives the decision record at the coordinator group (the
// minimum touched shard). An acknowledged decide either committed the
// coordinator's fragment (StatusOK, plus its receipt) and the commit fans
// out to the others, or lost the first-write race to a query-or-abort
// tombstone (StatusConflict) — a recovery sweep already resolved this txid
// as aborted — and the transaction aborts: the tombstone, not this decide,
// is what every participant will observe. A decide unacknowledged through
// every round may still have been logged, and with it the coordinator's
// fragment installed, so the driver asks instead of aborting.
func (c *Client) sendDecide(tx *txState) {
	c.retryFanout(tx.shards[:1], app.EncodeTxnDecide(tx.txid, true), func(allAcked bool, resps [][]byte) {
		switch {
		case !allAcked:
			c.queryDecision(tx)
		case len(resps[0]) > 0 && resps[0][0] == app.StatusOK:
			c.sendCommits(tx, tx.shards[1:], resps[:1])
		default:
			c.abortTx(tx)
		}
	})
}

// queryDecision resolves a transaction whose decide went unanswered with
// OpTxnQueryDecision at the coordinator group, the recovery sweep's
// query-or-abort step: a logged commit is sent to every participant (the
// coordinator's copy is a redelivery that re-answers its receipt), and an
// abort — the query's own tombstone if the decide was never logged — is
// sent to every participant too. While the coordinator group stays silent
// one query ladder after another runs: the transaction is in doubt, and
// only that group can settle it.
func (c *Client) queryDecision(tx *txState) {
	c.retryFanout(tx.shards[:1], app.EncodeTxnQueryDecision(tx.txid), func(_ bool, resps [][]byte) {
		commit, ok := app.DecodeTxnQueryDecision(resps[0])
		switch {
		case !ok:
			c.queryDecision(tx)
		case commit:
			c.sendCommits(tx, tx.shards, nil)
		default:
			c.abortTx(tx)
		}
	})
}

// sendCommits fans the commit out to groups; done fires when all
// acknowledged, or after the retry rounds run out (decided = committed, so
// the outcome is StatusOK regardless — but see finishCommit for the caveat
// about a participant unreachable past the whole backoff window). have
// holds the acknowledgements already in hand for the shards before groups.
func (c *Client) sendCommits(tx *txState, groups []int, have [][]byte) {
	c.retryFanout(groups, app.EncodeTxnCommit(tx.txid), func(_ bool, resps [][]byte) {
		c.finishCommit(tx, append(have, resps...))
	})
}

// finishCommit delivers the committed outcome once. When every participant
// acknowledged with a commit receipt (the application's Commit returned
// per-fragment results — the order book reports each leg's fills), the
// response is the receipts envelope in ascending shard order; receipt-less
// applications keep the historical one-byte StatusOK. A participant that
// stayed unreachable through every commit round keeps its locks until it
// is told again — the client retains no transaction state, so that
// redelivery is a sweep's (recovery.go): any client replays the
// coordinator's decision log at the stranded group.
func (c *Client) finishCommit(tx *txState, resps [][]byte) {
	if tx.phase == txDone {
		return
	}
	tx.phase = txDone
	result := []byte{app.StatusOK}
	receipts := make([][]byte, len(resps))
	haveAll := len(resps) > 0
	for i, res := range resps {
		if len(res) < 2 || res[0] != app.StatusOK {
			haveAll = false // unacked leg or receipt-less app
			break
		}
		receipts[i] = res[1:]
	}
	if haveAll {
		result = app.EncodeTxnReceipts(receipts)
	}
	tx.done(result, c.cc.Proc().Now().Sub(tx.started))
}

// retryFanout sends payload to every group once per round, retrying the
// unacknowledged ones with exponentially backed-off rounds (retryAttempts
// rounds starting at PrepareTimeout). Each round's outstanding completion
// handles are cancelled before the next, so no pending state outlives the
// retries. done fires exactly once — immediately when the last group
// acknowledges, or at the end of the final round with allAcked=false — and
// receives each group's acknowledgement body (nil for a group that never
// acknowledged), which is how commit receipts travel back to the driver.
func (c *Client) retryFanout(groups []int, payload []byte, done func(allAcked bool, resps [][]byte)) {
	acked := make([]bool, len(groups))
	resps := make([][]byte, len(groups))
	var round func(attemptsLeft int, delay sim.Duration)
	round = func(attemptsLeft int, delay sim.Duration) {
		nums := make([]uint64, len(groups))
		for i, g := range groups {
			if acked[i] {
				continue
			}
			i := i
			nums[i] = c.cc.Call(g, payload, consensus.Mode{}, func(res []byte, _ sim.Duration) {
				acked[i] = true
				resps[i] = res
				for _, ok := range acked {
					if !ok {
						return
					}
				}
				done(true, resps)
			})
		}
		c.cc.Proc().After(delay, func() {
			unacked := false
			for i, num := range nums {
				if num != 0 && !acked[i] {
					c.cc.Cancel(num)
					unacked = true
				}
			}
			if !unacked {
				return // done(true) already fired (or will, from an ack in flight)
			}
			if attemptsLeft > 1 {
				round(attemptsLeft-1, 2*delay)
				return
			}
			done(false, resps)
		})
	}
	round(retryAttempts, PrepareTimeout)
}

// PrepareTimeout bounds the prepare phase of a cross-shard write: if any
// participant group has not voted by then, the coordinator aborts the
// transaction so the responsive groups release their locks (a stalled group
// must not wedge the others). ~20x a healthy cross-shard prepare. It is also
// the first round of every retransmission backoff below.
const PrepareTimeout = 2 * sim.Millisecond

// retryAttempts bounds the abort/decide/commit retransmission rounds: a
// dropped frame (lossy network models) must not strand a participant's
// locks, but a permanently stalled group must not keep the client retrying
// — or holding pending-request state — forever. (The one exception is a
// decide no round acknowledged: queryDecision asks the coordinator group
// until it answers.) Rounds back off exponentially from PrepareTimeout (1x,
// 2x, 4x, ...), so the bounded attempt count rides out asynchrony periods
// ~2^retryAttempts longer than one round-trip.
const retryAttempts = 6

// abortTx resolves the transaction as aborted: in-flight prepares are
// abandoned, every participant gets an OpTxnAbort (releasing the locks of
// those that prepared; idempotent no-op elsewhere), and the caller learns
// the outcome immediately — it must not wait on a stalled group. Aborts
// are retransmitted to unacknowledging participants for a bounded number
// of rounds, each round's completion handles cancelled before the next so
// no pending state outlives the retries.
func (c *Client) abortTx(tx *txState) {
	if tx.phase == txDone {
		return
	}
	tx.phase = txDone
	tx.timer.Cancel()
	for _, num := range tx.pending {
		if num != 0 {
			c.cc.Cancel(num)
		}
	}
	c.retryFanout(tx.shards, app.EncodeTxnAbort(tx.txid), func(bool, [][]byte) {})
	tx.done([]byte{app.StatusAborted}, c.cc.Proc().Now().Sub(tx.started))
}
