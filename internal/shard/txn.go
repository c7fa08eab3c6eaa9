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

// txState is one transaction this client drives. It owns its plan (the
// participant shards are plan.shards) and goes back to the client's free
// list when its outcome is delivered: by then every prepare is answered or
// cancelled, the prepare timer has fired or been cancelled, and the
// fan-out that delivered the outcome no longer reads it. Only then is a
// leg's prepare buffer rewritten, by the record's next transaction.
type txState struct {
	txid    uint64
	plan    *splitPlan
	started sim.Time
	done    func(result []byte, latency sim.Duration)

	phase    txPhase
	votes    int
	prepares [][]byte // per leg, the prepare sent, in a buffer the record keeps
	pending  []uint64 // per-leg consensus request numbers (0 = answered)
	timer    sim.Timer
	// acks are the commit acknowledgements in shard order.
	acks [][]byte

	// Bound once, when the record is made: its client, which makes the
	// record the prepare timer's Handler, and each leg's vote callback.
	c      *Client
	onVote []func(result []byte, latency sim.Duration)
}

// Fire is the prepare timer's expiry: the transaction aborts.
func (tx *txState) Fire() { tx.c.abortTx(tx) }

// beginTx splits the write across its participant groups (one fragment per
// touched shard) and starts the prepare phase. The txid is globally unique
// and deterministic: the client's host ID in the high bits, a per-client
// sequence in the low. The transaction owns plan from here on, unless it
// fails to start.
func (c *Client) beginTx(payload []byte, plan *splitPlan, done func(result []byte, latency sim.Duration)) error {
	tx := c.txs.Get()
	if tx == nil {
		tx = &txState{c: c}
	}
	n := len(plan.shards)
	txid, coord := uint64(c.id)<<32|uint64(c.txSeq+1), uint64(plan.shards[0])
	tx.prepares = extend(tx.prepares, n)
	for i, idx := range plan.legKeys {
		frag, err := c.frag.Fragment(c.legFrag[:0], payload, idx)
		c.legFrag = frag
		if err != nil {
			c.txs.Put(tx)
			return err
		}
		tx.prepares[i] = app.EncodeTxnPrepare(tx.prepares[i][:0], txid, coord, frag)
	}
	c.txSeq++
	tx.txid, tx.plan, tx.started, tx.done = txid, plan, c.cc.Proc().Now(), done
	tx.phase, tx.votes, tx.pending = txVoting, 0, resize(tx.pending, n)
	for i := len(tx.onVote); i < n; i++ {
		tx.onVote = append(tx.onVote, func(res []byte, _ sim.Duration) { c.onVote(tx, i, res) })
	}
	for i, s := range plan.shards {
		tx.pending[i] = c.cc.Call(s, tx.prepares[i], consensus.Mode{}, tx.onVote[i])
	}
	tx.timer = c.cc.Proc().AfterH(PrepareTimeout, tx)
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
	if tx.votes == len(tx.plan.shards) {
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
	c.retryFanout(stepDecide, tx, stagedKey{}, tx.plan.shards[:1], tx.txid)
}

// decided takes the outcome of the decision record at the coordinator group
// (the minimum touched shard). An acknowledged decide either committed the
// coordinator's fragment (StatusOK, plus its receipt) and the commit fans
// out to the others, or lost the first-write race to a query-or-abort
// tombstone (StatusConflict) — a recovery sweep already resolved this txid
// as aborted — and the transaction aborts: the tombstone, not this decide,
// is what every participant will observe. A decide unacknowledged through
// every round may still have been logged, and with it the coordinator's
// fragment installed, so the driver asks instead of aborting.
func (c *Client) decided(tx *txState, acked bool, res []byte) {
	switch {
	case !acked:
		c.queryDecision(tx)
	case len(res) > 0 && res[0] == app.StatusOK:
		tx.acks = append(tx.acks[:0], res)
		c.retryFanout(stepCommit, tx, stagedKey{}, tx.plan.shards[1:], tx.txid)
	default:
		c.abortTx(tx)
	}
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
	c.retryFanout(stepQuery, tx, stagedKey{}, tx.plan.shards[:1], tx.txid)
}

// queried takes the coordinator group's answer to queryDecision.
func (c *Client) queried(tx *txState, res []byte) {
	commit, ok := app.DecodeTxnQueryDecision(res)
	switch {
	case !ok:
		c.queryDecision(tx)
	case commit:
		tx.acks = tx.acks[:0]
		c.retryFanout(stepCommit, tx, stagedKey{}, tx.plan.shards, tx.txid)
	default:
		c.abortTx(tx)
	}
}

// finishCommit delivers the committed outcome once the commit fan-out
// ended: every participant acknowledged, or the retry rounds ran out
// (decided = committed, so the outcome is StatusOK regardless). When every
// participant acknowledged with a commit receipt (the application's Commit
// returned per-fragment results — the order book reports each leg's
// fills), the response is the receipts envelope in ascending shard order;
// receipt-less applications keep the historical one-byte StatusOK. A
// participant that stayed unreachable through every commit round keeps its
// locks until it is told again — the client retains no transaction state,
// so that redelivery is a sweep's (recovery.go): any client replays the
// coordinator's decision log at the stranded group.
func (c *Client) finishCommit(tx *txState, resps [][]byte) {
	tx.acks = append(tx.acks, resps...)
	var receipts [][]byte
	haveAll := len(tx.acks) > 0
	for _, res := range tx.acks {
		if len(res) < 2 || res[0] != app.StatusOK {
			haveAll = false // unacked leg or receipt-less app
			break
		}
		receipts = append(receipts, res[1:])
	}
	if haveAll {
		c.endTx(tx, app.EncodeTxnReceipts(nil, receipts))
		return
	}
	c.endTx(tx, []byte{app.StatusOK})
}

// endTx releases the transaction and hands its caller the outcome.
func (c *Client) endTx(tx *txState, result []byte) {
	tx.phase = txDone
	done, lat := tx.done, c.cc.Proc().Now().Sub(tx.started)
	c.plans.Put(tx.plan)
	clear(tx.acks) // views of reply frames
	tx.acks, tx.plan, tx.done, tx.timer = tx.acks[:0], nil, nil, sim.Timer{}
	c.txs.Put(tx)
	done(result, lat)
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
	tx.timer.Cancel()
	for _, num := range tx.pending {
		if num != 0 {
			c.cc.Cancel(num)
		}
	}
	c.retryFanout(stepAbort, nil, stagedKey{}, tx.plan.shards, tx.txid)
	c.endTx(tx, []byte{app.StatusAborted})
}

// fanStep is what a fan-out sends and what its outcome drives.
type fanStep uint8

const (
	stepAbort       fanStep = iota // a transaction's aborts: nothing waits on them
	stepDecide                     // a transaction's decide: decided
	stepQuery                      // a transaction's query-or-abort: queried
	stepCommit                     // a transaction's commits: finishCommit
	stepSweepQuery                 // a sweep's query-or-abort: sweepQueried
	stepSweepCommit                // a sweep's commit at the stranded group: sweepResolved
	stepSweepAbort                 // a sweep's abort at the stranded group: sweepResolved
)

// encode appends to dst the command step sends for txid.
func (s fanStep) encode(dst []byte, txid uint64) []byte {
	switch s {
	case stepDecide:
		return app.EncodeTxnDecide(dst, txid, true)
	case stepQuery, stepSweepQuery:
		return app.EncodeTxnQueryDecision(dst, txid)
	case stepCommit, stepSweepCommit:
		return app.EncodeTxnCommit(dst, txid)
	default: // stepAbort, stepSweepAbort
		return app.EncodeTxnAbort(dst, txid)
	}
}

// fanout is one retransmitted fan-out (retryFanout). Its record goes back
// to the client's free list when its last round timer fires, never before:
// the timer is never cancelled, and by then every Call of every round is
// answered or cancelled. The outcome is delivered once, before that.
type fanout struct {
	c       *Client
	step    fanStep
	tx      *txState  // the transaction a stepDecide, stepQuery or stepCommit drives
	key     stagedKey // the stranded transaction a sweep step resolves
	groups  []int
	payload []byte // step's command, in a buffer the record keeps
	acked   []bool
	resps   [][]byte
	nums    []uint64 // the current round's request numbers (0 = acknowledged before it)
	left    int      // rounds left, this one included
	delay   sim.Duration

	// Each leg's acknowledgement callback, bound once when the record is
	// made. The record is its round timer's Handler.
	onAck []func(result []byte, latency sim.Duration)
}

// retryFanout sends payload to every group once per round, retrying the
// unacknowledged ones with exponentially backed-off rounds (retryAttempts
// rounds starting at PrepareTimeout). Each round's outstanding completion
// handles are cancelled before the next, so no pending state outlives the
// retries. The outcome is delivered exactly once — immediately when the
// last group acknowledges, or at the end of the final round unacknowledged
// — with each group's acknowledgement body (nil for a group that never
// acknowledged), which is how commit receipts travel back to the driver.
// step says what every round sends for txid (fanStep.encode) and where the
// outcome goes (fanout.settle).
func (c *Client) retryFanout(step fanStep, tx *txState, k stagedKey, groups []int, txid uint64) {
	f := c.fanouts.Get()
	if f == nil {
		f = &fanout{c: c}
	}
	n := len(groups)
	f.step, f.tx, f.key, f.payload = step, tx, k, step.encode(f.payload[:0], txid)
	f.groups = append(f.groups[:0], groups...)
	f.acked, f.resps, f.nums = resize(f.acked, n), resize(f.resps, n), resize(f.nums, n)
	f.left, f.delay = retryAttempts, PrepareTimeout
	for i := len(f.onAck); i < n; i++ {
		f.onAck = append(f.onAck, func(res []byte, _ sim.Duration) { f.ack(i, res) })
	}
	f.round()
}

// round sends to every unacknowledged group and arms the round timer.
func (f *fanout) round() {
	for i, g := range f.groups {
		f.nums[i] = 0
		if !f.acked[i] {
			f.nums[i] = f.c.cc.Call(g, f.payload, consensus.Mode{}, f.onAck[i])
		}
	}
	f.c.cc.Proc().AfterH(f.delay, f)
}

// ack takes group i's acknowledgement; the last one delivers the outcome.
func (f *fanout) ack(i int, res []byte) {
	f.acked[i] = true
	f.resps[i] = res
	for _, ok := range f.acked {
		if !ok {
			return
		}
	}
	f.settle(true)
}

// Fire ends a round: it cancels the round's unanswered calls, then runs the
// next round or, after the last, delivers the unacknowledged outcome. Once
// the outcome is delivered the record goes back to the free list: this
// timer was the last thing that could call into it.
func (f *fanout) Fire() {
	unacked := false
	for i, num := range f.nums {
		if num != 0 && !f.acked[i] {
			f.c.cc.Cancel(num)
			unacked = true
		}
	}
	switch {
	case !unacked: // every group acknowledged: ack delivered the outcome
	case f.left > 1:
		f.left--
		f.delay *= 2
		f.round()
		return
	default:
		f.settle(false)
	}
	f.c.releaseFanout(f)
}

// releaseFanout keeps f, its payload buffer included, for the next fan-out.
func (c *Client) releaseFanout(f *fanout) {
	clear(f.resps) // views of reply frames
	f.tx = nil
	c.fanouts.Put(f)
}

// settle delivers the fan-out's outcome to its step, once.
func (f *fanout) settle(allAcked bool) {
	c := f.c
	switch f.step {
	case stepDecide:
		c.decided(f.tx, allAcked, f.resps[0])
	case stepQuery:
		c.queried(f.tx, f.resps[0])
	case stepCommit:
		c.finishCommit(f.tx, f.resps)
	case stepSweepQuery:
		c.sweepQueried(f.key, f.resps[0])
	case stepSweepCommit, stepSweepAbort:
		c.sweepResolved(f.key, f.step == stepSweepCommit, allAcked)
	}
}
