// Package app defines the replicated-application interface of the SMR
// layer and hosts the four applications evaluated in the paper (§7.1):
// Flip (toy echo-reverser), a Memcached-like key-value store, a Redis-like
// key-value store with richer operations, and a Liquibook-like financial
// order matching engine. The two key-value stores are one implementation —
// the keyed-store engine of keyed.go — told apart by a dialect value
// (opcode table, three status bytes, exec cost, request builders) and by
// whether a FIFO eviction list is attached; KV and RKV stay distinct
// exported names with their own wire and snapshot bytes.
//
// Beyond the base StateMachine contract, applications can opt into layered
// capabilities that the shard layer consumes generically:
//
//   - Router exposes the keys a request touches, so a shard-aware client
//     can hash-route any application without app-specific glue.
//   - Fragmenter splits a multi-key request into per-shard fragments and
//     merges per-leg read responses, enabling scatter-gather reads.
//   - TxnParticipant provides the 2PC hooks (Prepare/Commit/Abort/Decided,
//     plus StagedTxns/QueryDecision for commit-phase recovery) that make
//     cross-shard multi-key writes atomic; the reusable LockTable
//     implements them for any application that can install a staged
//     fragment.
//   - Deferring surfaces the LockTable's per-key FIFO wait queue to the
//     replica layer, so requests blocked on a transaction lock resume when
//     the lock releases instead of being bounced back for a retry.
//   - ReadExecutor executes read-only requests against current state with
//     no side effects, enabling the unordered read fast path (f+1 quorum
//     reads that skip consensus entirely).
//   - Versioned / VersionedReadExecutor expose per-key multi-versioning
//     (the shared VersionedStore): reads answered as of an exact state
//     version, enabling consistent snapshot scatter reads and linearizable
//     strong reads on top of the fast path.
package app

import (
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// StateMachine is the deterministic application replicated by uBFT and the
// baselines. Implementations must be deterministic: the same request
// sequence produces the same state and the same responses on every replica.
type StateMachine interface {
	// Apply executes one request and returns its response. A nil response
	// is reserved for Deferring applications: it means the request was
	// parked on a transaction lock and its result will surface through
	// TakeReleased during a later command's Apply.
	//
	// The response is read-only and the caller's only until the instance's
	// next Apply, ApplyRead or ApplyReadAt: every application here appends
	// its answers into one buffer it keeps. A caller that keeps an answer
	// longer copies it (the replica copies it into its reply frame and into
	// the client's exactly-once record at once).
	Apply(req []byte) []byte
	// Snapshot serializes the full application state (checkpointing).
	Snapshot() []byte
	// Restore replaces the state with a snapshot (state transfer).
	Restore(snapshot []byte)
	// ExecCost returns the virtual CPU time executing req takes, so the
	// simulation charges realistic application latency.
	ExecCost(req []byte) sim.Duration
}

// Router is the routing capability: a state machine that can report which
// keys a request touches, letting the shard layer derive single- versus
// multi-shard placement generically (it replaced the per-app RouteFunc
// glue). AppendKeys must be a pure function of the request bytes — the shard
// layer calls it on a prototype instance that never executes requests.
type Router interface {
	StateMachine
	// AppendKeys appends every key req touches, in request order, to dst and
	// returns the extended slice, so a caller that routes one request at a
	// time may reuse it; the keys are views of req. Requests that touch no
	// key (empty multi-reads) append none and may be placed on any shard.
	// Unroutable or malformed requests return an error wrapping ErrNoKey.
	AppendKeys(dst [][]byte, req []byte) ([][]byte, error)
}

// Fragmenter is the cross-shard execution capability: splitting a
// multi-key request into per-shard fragments and, for reads, merging the
// per-leg responses back into the single response one shard holding every
// key would have produced. Like Router, all three methods must be pure
// functions of their arguments.
type Fragmenter interface {
	Router
	// ReadOnly reports whether req executes as a scatter-gather read
	// (true) or a 2PC write transaction (false) when its keys span shards.
	ReadOnly(req []byte) bool
	// Fragment re-encodes req restricted to the keys at the given indices
	// of the Keys result, appended to dst, and returns dst extended (dst as
	// it was, with the error, when req cannot be split so). The fragment
	// must be an executable request of the same application.
	Fragment(dst, req []byte, keyIdx []int) ([]byte, error)
	// Merge reassembles per-leg read responses into the whole-request
	// response. legKeys[i] lists the original key indices leg i served
	// (parallel to legs). If a leg failed, the first failing leg's status
	// (in leg order) is returned so the merged outcome is deterministic.
	Merge(req []byte, legs [][]byte, legKeys [][]int) []byte
}

// TxnParticipant is the 2PC participation capability: the hooks the shard
// layer drives — through the consensus-ordered generic transaction commands
// of txn.go — to make a multi-key write atomic across groups and to recover
// a participant stranded in the commit phase. Applications implement it by
// embedding a LockTable (which carries the locks, staged fragments, abort
// tombstones and wait queue through Snapshot/Restore); the hook contracts
// are documented on the LockTable methods.
type TxnParticipant interface {
	StateMachine
	// Prepare locks the fragment's keys and stages it under txid, stamped
	// with its coordinator group (the group whose decision log owns the
	// outcome), voting StatusOK, or votes StatusConflict/StatusBadReq
	// staging nothing. fragment is the caller's: Prepare copies what it
	// stages.
	Prepare(txid, coord uint64, fragment []byte) uint8
	// Commit installs txid's staged fragment and releases its locks. The
	// optional receipt (nil for most stores) carries per-fragment results
	// — e.g. the fills of an order-book transfer leg — back to the
	// transaction driver, which assembles the per-leg receipts into the
	// client's transaction response.
	Commit(txid uint64) (status uint8, receipt []byte)
	// Abort discards txid's staged fragment, releases its locks and
	// tombstones the txid against late prepares.
	Abort(txid uint64) uint8
	// Decided records the coordinator group's durable decision for txid,
	// first write wins (StatusConflict when a different decision is already
	// logged). It installs nothing: ApplyTxn follows an accepted commit
	// decision with Commit, which installs the coordinator group's own
	// fragment in the same ordered command.
	Decided(txid uint64, commit bool) uint8
	// StagedTxns lists the prepared-but-undecided transactions ascending by
	// txid — what a recovery sweep (OpTxnListStaged) reads. It must be
	// read-only.
	StagedTxns() []StagedTxn
	// QueryDecision returns the recorded decision for txid, tombstoning an
	// undecided txid as aborted first (query-or-abort): after it runs, the
	// answer is durable and a straggling commit decide can no longer flip
	// it. Only meaningful on the coordinator group's replicas.
	QueryDecision(txid uint64) bool
}

// StagedTxn is one prepared-but-undecided transaction a participant holds
// locks for, with the coordinator group that owns its outcome.
type StagedTxn struct {
	Txid  uint64
	Coord uint64
}

// Deferring is the wait-queue capability the replica execution layer
// consumes: a state machine whose Apply may park a request blocked on a
// transaction lock (returning nil) and complete it during a later
// command's Apply, when the lock releases.
type Deferring interface {
	// TakeParkedTicket returns and clears the ticket assigned by the last
	// Apply that parked its request (0 if it did not park).
	TakeParkedTicket() uint64
	// TakeReleased drains the results of parked requests completed by the
	// last Apply, in execution order. Unlike Apply's answer, each Result is
	// the caller's to keep: the request ran inside that Apply, so its answer
	// was copied out of the application's buffer before anything else ran.
	TakeReleased() []Release
	// Parked reports whether ticket is still waiting in the queue, so the
	// replica's checkpoint pruning never discards the response owed for a
	// live parked request (which would make the client's retransmission
	// re-execute it).
	Parked(ticket uint64) bool
}

// Release is one parked request completed by a later command's Apply. Req
// carries the original request bytes so the replica layer can charge its
// ExecCost at release (a parked request must not execute "free" inside the
// releasing commit/abort's Apply).
type Release struct {
	Ticket uint64
	Result []byte
	Req    []byte
}

// ReadExecutor is the unordered-read capability behind the read fast path:
// executing a read-only request against the replica's current state with no
// side effects whatsoever — no parking, no wait-queue mutation, no state
// change. Where the ordered Apply would park a request on a transaction
// lock, ApplyRead answers a bare StatusLocked instead: the unordered path
// cannot park (parking is tied to ordered execution), so the caller falls
// back to the ordered path, which does.
//
// ApplyRead must be a pure function of the request bytes and the current
// state: for the same state every replica must produce byte-identical
// results, or the f+1 matching-digest quorum of the fast path can never
// form.
//
// The answer follows Apply's rule: read-only, and the caller's only until
// the state machine's next Apply, ApplyRead or ApplyReadAt (the keyed stores
// and the order book append every answer into one buffer they keep). The
// replica copies each answer into its reply frame at once.
type ReadExecutor interface {
	StateMachine
	// ApplyRead executes req read-only; ok=false when req is not a request
	// this store can answer off the ordered path (writes, unknown opcodes).
	ApplyRead(req []byte) (res []byte, ok bool)
}

// Versioned is the MVCC capability: a state machine whose keyed state is
// multi-versioned (backed by VersionedStore), letting the replica answer
// reads as of past state versions. The replica layer drives the lifecycle:
//
//   - BeginSlot before applying each ordered command, with the state
//     version that command produces (slot s => version s+1, the same
//     numbering the fast-read floors speak);
//   - PruneVersions at stable-checkpoint CREATION — not at the
//     asynchronous prune — so the horizon is a deterministic function of
//     the applied state and snapshot digests stay identical across
//     replicas.
type Versioned interface {
	StateMachine
	// BeginSlot sets the version stamp for the writes of the command about
	// to be applied.
	BeginSlot(version uint64)
	// PruneVersions raises the GC horizon: versions older than the newest
	// at-or-below-horizon one per key are dropped, and reads pinned below
	// the horizon are refused from then on.
	PruneVersions(horizon uint64)
	// VersionHorizon returns the current GC horizon.
	VersionHorizon() uint64
	// VersionCount returns the total retained versions (bounded-memory
	// regression surface).
	VersionCount() int
}

// VersionedReadExecutor answers a read as of an exact state version — the
// capability behind pinned snapshot scatter legs and strong reads. Every
// correct replica with lastApplied >= at must produce byte-identical
// results for the same (req, at), regardless of how far past `at` it has
// executed; that is what makes pinned quorum digests matchable.
//
// Unlike ApplyRead, ApplyReadAt never answers StatusLocked: a read as of
// version `at` is well-defined even while a transaction holds the key
// (staged fragments are not part of any version). Instead txnCrossed
// reports whether the read may straddle an in-flight or recently committed
// transaction — some key is currently transaction-locked, or has a
// transaction-installed version newer than `at` — which the shard layer's
// consistent-cut rule turns into a chase or fallback. Plain single-key
// writes never set it, so snapshot reads converge under write-heavy load.
//
// ok=false refuses the read: not a read-only request, or `at` below the
// store's GC horizon. As ApplyRead's, the answer is the caller's only until
// the next Apply, ApplyRead or ApplyReadAt.
type VersionedReadExecutor interface {
	ReadExecutor
	ApplyReadAt(req []byte, at uint64) (res []byte, txnCrossed bool, ok bool)
}

// ReadDigest fingerprints a read reply for the f+1 matching rule of the
// unordered read fast path — the same checksum family the ordered client
// response path matches on, charged nowhere (reads must not pay protocol
// digest costs).
func ReadDigest(result []byte) uint64 { return xcrypto.ChecksumNoCharge(result) }

// Pair is one key/value pair of a multi-key write (both keyed stores).
type Pair struct {
	Key, Val []byte
}

// readCount reads a multi-key element count, rejecting values beyond max
// BEFORE the uint64 → int conversion: a malicious 10-byte varint would
// otherwise convert negative, slip past an int-typed bound check, and
// panic the slice allocation inside Apply on every replica.
func readCount(rd *wire.Reader, max int) (int, bool) {
	n := rd.Uvarint()
	if n > uint64(max) {
		return 0, false
	}
	return int(n), true
}
