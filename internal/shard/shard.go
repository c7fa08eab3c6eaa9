// Package shard runs S independent uBFT consensus groups side by side on
// one fabric, partitioning the application key space across them for
// horizontal throughput scaling. Each group is a complete uBFT deployment
// — 2f+1 replicas with their own leader, window and CTBcast tail — but all
// groups share the single memory-node pool (§1 of the paper: memory nodes
// "can be shared among many applications"), with disjoint SWMR region
// spans. The nodes are wired by the one deployment assembler in
// internal/cluster (Build is "every node of cluster.ShardedLayout"); this
// package adds only what is shard-specific: capability discovery and the
// routing Client, which also drives 2PC and its commit-phase recovery.
//
// The shard layer is application-agnostic: it consumes only the capability
// interfaces of internal/app. Routing derives from app.Router (the keys a
// request touches, hashed onto groups), cross-shard execution from
// app.Fragmenter (per-shard fragments, merged leg responses), and atomic
// cross-shard writes from app.TxnParticipant driven through the generic
// OpTxn* envelope — no app-specific opcode appears anywhere in this
// package (the appagnostic lint pass enforces it). Any state machine
// implementing the capabilities gets sharding, scatter-gather reads and
// 2PC transactions for free.
//
// Clients are shard-aware: they hash each request's keys onto a group and
// fire it down the ordinary ChanRPC path of that group. Multi-key requests
// whose keys land on different shards execute across groups: read-only
// fan-outs scatter-gather (one fragment per touched group, merged back
// into the original key order), and multi-key writes run as 2PC-style
// transactions — the client prepares/locks the keys in every participant
// group, logs the decision in a deterministic coordinator group (the
// minimum touched shard), then commits everywhere; a participant that
// stalls during prepare triggers abort-on-timeout so the healthy groups
// release their locks. See txn.go for the commit protocol.
//
// ID allocation (cluster.ShardedLayout, one namespace per fabric):
//
//	replica i of shard s   -> s*100 + i      (n = 2f+1 <= 64 < 100)
//	memory node j          -> 100_000 + j    (shared pool)
//	client c               -> 200_000 + c
//
// Region allocation: shard s owns region IDs
// [s*RegionSpan, (s+1)*RegionSpan) on every memory node, where RegionSpan
// is consensus.Config.RegionSpan() for the group configuration. Overlap is
// impossible by construction and memnode.Allocate panics on collision.
package shard

import (
	"errors"
	"fmt"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ErrCrossShard reports a multi-key request whose keys hash to different
// shards but which has no cross-shard execution path: the application does
// not implement app.Fragmenter, or the request is a write and the
// application does not implement app.TxnParticipant.
var ErrCrossShard = errors.New("shard: request touches keys on multiple shards")

// ErrNoRouter reports an Invoke on a multi-shard deployment whose
// application does not implement app.Router.
var ErrNoRouter = errors.New("shard: application does not implement app.Router")

// MultiShard is the shard index Invoke reports for requests that executed
// across several groups (scatter-gather reads and 2PC writes).
const MultiShard = -1

// Route maps a request payload to the shard that owns it using the
// application's Router capability, or fails with ErrCrossShard (multi-key
// fan-out), ErrNoRouter, or a key-extraction error. It is the generic
// replacement for the per-app RouteFunc glue (and backs the ubft.Route
// facade helper).
func Route(a app.StateMachine, payload []byte, shards int) (int, error) {
	r, ok := a.(app.Router)
	if !ok {
		if shards <= 1 {
			return 0, nil
		}
		return 0, ErrNoRouter
	}
	keys, err := r.AppendKeys(nil, payload)
	if err != nil {
		return 0, err
	}
	if len(keys) == 0 {
		return 0, nil // key-less: any shard gives the same answer
	}
	s := app.ShardOfKey(keys[0], shards)
	for _, k := range keys[1:] {
		if app.ShardOfKey(k, shards) != s {
			return 0, ErrCrossShard
		}
	}
	return s, nil
}

// Options configures a sharded deployment. Zero values take defaults.
type Options struct {
	Seed   int64
	Shards int // number of consensus groups S (default 1)
	// NumClients is the number of shard-aware client hosts (default 1).
	// Every client can reach every shard.
	NumClients int

	// Group configures each consensus group exactly like a standalone
	// cluster (F, Fm, Window, Tail, batching, path modes...). Group.Seed,
	// Group.NumClients and Group.NewApp must stay unset (Build rejects
	// them): the deployment-level fields govern those. Group.Fabric
	// injects the transport backend for every endpoint of the deployment
	// (nil takes the deterministic simulated fabric seeded with Seed); a
	// fabric without an engine is rejected with a clear error.
	Group cluster.Options

	// NewApp builds the state machine for one replica of one shard; nil
	// defaults to the Memcached-like KV store (the canonical partitionable
	// application). Routing and cross-shard execution derive from the
	// capability interfaces (app.Router, app.Fragmenter,
	// app.TxnParticipant) of a prototype instance, whose capability
	// methods must be pure functions of the request bytes.
	NewApp func(shard int) app.StateMachine

	// FastReads routes read-only requests (classified by the application's
	// Fragmenter.ReadOnly capability — multi-reads and single-key point
	// reads alike) through the unordered read fast path: one round trip to
	// all 2f+1 replicas of the owning group, accepted on f+1 matching
	// result digests at a compatible state version, with the ordered path
	// as the always-correct fallback (mismatch, timeout, locked keys).
	// Scatter-gather multi-reads run the snapshot protocol: after an
	// unpinned sampling round every leg is re-read PINNED at its group's
	// revealed frontier (the application's MVCC store answers as-of that
	// exact version), and the merge is accepted only when every leg is
	// pinned and provably did not straddle a transaction — a consistent
	// snapshot cut, never a pre/post mix. Default off: the ordered path
	// stays bit-identical to a deployment without the feature. Requires the
	// application to implement app.ReadExecutor (silently ignored
	// otherwise); the snapshot pinning additionally wants
	// app.VersionedReadExecutor (legs fall back to the ordered scatter
	// without it).
	FastReads bool

	// StrongReads upgrades single-group read-only requests to the
	// linearizable strong mode: acceptance requires ALL 2f+1 replicas to
	// agree on (result, version) — first sampled unpinned, then pinned at
	// the revealed frontier — so the result reflects every write that
	// completed before the read began. Unreachable strong quorums
	// (loss, refusals, version churn) fall back transparently to the
	// ordered path, which is linearizable by construction. Cross-shard
	// scatter reads keep the snapshot semantics of FastReads. Same
	// capability requirements as FastReads.
	StrongReads bool
}

func (o *Options) normalize() error {
	switch {
	case o.Group.Seed != 0:
		return errors.New("shard: Group.Seed is set; the deployment seed is Options.Seed")
	case o.Group.NumClients != 0:
		return errors.New("shard: Group.NumClients is set; the client count is Options.NumClients")
	case o.Group.NewApp != nil:
		return errors.New("shard: Group.NewApp is set; the application factory is Options.NewApp")
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Shards < 0 || o.Shards > cluster.MaxShards {
		return fmt.Errorf("shard: Shards=%d outside [1, %d]", o.Shards, cluster.MaxShards)
	}
	if o.NumClients == 0 {
		o.NumClients = 1
	}
	if o.NumClients < 0 {
		return fmt.Errorf("shard: negative NumClients=%d", o.NumClients)
	}
	if o.NewApp == nil {
		//ubft:appagnostic nil-NewApp convenience default (a KV factory for tests and benches) — the one deliberate app coupling in the shard layer
		o.NewApp = func(int) app.StateMachine { return app.NewKV(0) }
	}
	return o.Group.Normalize()
}

// Group is one consensus group of the deployment.
type Group = cluster.Group

// Deployment is an assembled multi-group uBFT fabric: every node of the
// S-group layout (the embedded Assembly: engine, network, registry,
// Groups, MemNodes, KillReplica/RestartReplica, Stop) plus the
// shard-aware clients.
type Deployment struct {
	*cluster.Assembly

	Clients   []*Client
	ClientIDs []ids.ID
}

// New builds and wires an S-shard deployment on one engine. Invalid
// options panic (assembly-time bugs, consistent with cluster.NewUBFT),
// including a multi-shard deployment whose application lacks the Router
// capability — it could never route a single request.
func New(opts Options) *Deployment {
	d, err := Build(opts)
	if err != nil {
		panic(err)
	}
	return d
}

// Build is New with errors instead of panics: invalid options — including
// an injected Group.Fabric whose Engine() is nil, which could never
// schedule an event — fail with a clear diagnosis. With a nil Group.Fabric
// it assembles the deterministic simulated fabric exactly as before,
// bit-identical per seed; a real-transport deployment injects e.g. a
// nettrans fabric and gets Net == nil.
func Build(opts Options) (*Deployment, error) {
	return BuildWithDefenses(opts, consensus.Defenses{})
}

// BuildWithDefenses is Build with the given protocol defenses switched OFF
// in every replica. Not a deployment surface: the Byzantine
// harness (internal/byz/scenario) uses it to prove its invariant checker
// trips once a defense is gone.
func BuildWithDefenses(opts Options, off consensus.Defenses) (*Deployment, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}

	// The routing prototype: capability discovery happens once, at
	// assembly time.
	proto := opts.NewApp(0)
	appRouter, _ := proto.(app.Router)
	appFrag, _ := proto.(app.Fragmenter)
	_, canTxn := proto.(app.TxnParticipant)
	_, canRead := proto.(app.ReadExecutor)
	if appRouter == nil && opts.Shards > 1 {
		return nil, fmt.Errorf("shard: %d shards but the application does not implement app.Router", opts.Shards)
	}

	// The deployment-level seed governs every group.
	g := opts.Group
	g.Seed = opts.Seed
	a := cluster.NewAssembly(g, cluster.ShardedLayout(opts.Shards, g.F, g.Fm, g.MemNodes, opts.NumClients), opts.NewApp, off)
	if err := a.WireNodes(); err != nil {
		return nil, err
	}
	d := &Deployment{Assembly: a, ClientIDs: a.Layout.Clients}

	// Shard-aware clients: one multi-group consensus client per host plus
	// the capability-driven router.
	for c, id := range d.ClientIDs {
		cc, err := a.WireClient(c)
		if err != nil {
			return nil, err
		}
		d.Clients = append(d.Clients, &Client{
			cc:          cc,
			id:          id,
			shards:      opts.Shards,
			router:      appRouter,
			frag:        appFrag,
			canTxn:      canTxn,
			fastReads:   opts.FastReads && canRead && appFrag != nil,
			strongReads: opts.StrongReads && canRead && appFrag != nil,
		})
	}
	return d, nil
}

// Shards returns S.
func (d *Deployment) Shards() int { return len(d.Groups) }

// Client returns client ci (panics if absent).
func (d *Deployment) Client(ci int) *Client { return d.Clients[ci] }

// DecidedTotal sums decided slots across all groups — the numerator of the
// horizontal-scaling metric (decided requests per virtual second).
func (d *Deployment) DecidedTotal() int {
	total := 0
	for _, g := range d.Groups {
		total += g.DecidedCount()
	}
	return total
}

// DisaggregatedBytesOf returns one group's share of a single memory node's
// pool (the per-group region span accounting Table 2 generalizes to).
func (d *Deployment) DisaggregatedBytesOf(shard int) int {
	total := 0
	for _, id := range d.Groups[shard].ReplicaIDs {
		total += d.MemNodes[0].BytesOwnedBy(id)
	}
	return total
}

// InvokeSync routes and submits a request from client ci, runs the engine
// until the result arrives, and returns the result and its latency. It fails
// as cluster.UBFT.InvokeSync does, or with the routing error, in which case
// nothing was submitted.
func (d *Deployment) InvokeSync(ci int, payload []byte, maxWait sim.Duration) ([]byte, sim.Duration, error) {
	return cluster.SyncInvoke(d.Eng, maxWait, func(done func([]byte, sim.Duration)) error {
		_, err := d.Clients[ci].Invoke(payload, done)
		return err
	})
}

// Client is a shard-aware uBFT client: it owns one host endpoint, routes
// each request to the group owning its keys, and collects f+1 matching
// responses from that group's replicas. Requests spanning shards execute
// across groups via the application's capabilities: read-only requests
// scatter-gather (Fragmenter), multi-key writes run the 2PC protocol in
// txn.go (TxnParticipant) with this client as the transaction driver, and
// any client can sweep for and resolve transactions another driver left
// stranded (recovery.go).
//
// A cross-shard request's records (a fan-out plan, a scatter read, a
// transaction, a retransmitted fan-out) are recycled as ARCHITECTURE.md's
// host allocation section describes. A record goes back to its free list
// only once every Call it made is answered or cancelled and every timer it
// armed has fired or been cancelled; a fan-out's round timer is never
// cancelled, so its record waits for it. What a caller is handed (a merged
// read, a transaction's outcome) is never one of those records' buffers.
// A Client is not safe for concurrent use: like its consensus.Client, it
// runs on its host's process.
type Client struct {
	cc          *consensus.Client
	id          ids.ID
	shards      int
	router      app.Router
	frag        app.Fragmenter
	canTxn      bool
	fastReads   bool
	strongReads bool
	txSeq       uint32
	rec         *recovery // nil until the first SweepStranded

	// plan's scratch: the keys of the request it routes, each key's shard,
	// and per shard its leg number + 1 (0: untouched; all 0 between calls).
	keys    [][]byte
	shardOf []int
	legOf   []int

	plans    wire.FreeList[splitPlan]
	scatters wire.FreeList[scatter]
	txs      wire.FreeList[txState]
	fanouts  wire.FreeList[fanout]

	// legFrag holds one leg's fragment of a write until beginTx has encoded
	// it into the leg's prepare.
	legFrag []byte
}

// resize returns s with length n and every element zero, reallocating only
// when its capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// extend returns s with length n, keeping what s's array holds past len(s)
// from an earlier use: a record's per-leg storage outlives its legs.
func extend[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// splitPlan is the fan-out plan of one cross-shard request: the touched
// shards in ascending order and, per shard, the original key indices it
// owns. shards[0] doubles as the deterministic 2PC coordinator group. The
// record that executes the request owns its plan and releases it with
// itself.
type splitPlan struct {
	shards  []int
	legKeys [][]int
}

// reset empties the plan for n legs, keeping every leg's index storage.
func (p *splitPlan) reset(n int) {
	p.shards = p.shards[:0]
	p.legKeys = extend(p.legKeys, n)
	for i := range p.legKeys {
		p.legKeys[i] = p.legKeys[i][:0]
	}
}

// plan routes payload: (shard, nil) for a single-group request, or the
// fan-out plan when its keys span groups.
func (c *Client) plan(payload []byte) (int, *splitPlan, error) {
	if c.router == nil {
		return 0, nil, nil // single-shard deployment, routing is trivial
	}
	keys, err := c.router.AppendKeys(c.keys[:0], payload)
	if err != nil {
		return -1, nil, err
	}
	c.keys = keys[:0]
	if len(keys) == 0 {
		return 0, nil, nil // key-less: any shard gives the same answer
	}
	if len(keys) == 1 {
		return app.ShardOfKey(keys[0], c.shards), nil, nil
	}
	// Hash each key exactly once: the computed shard indices are reused
	// for both the single-shard fast path check and the fan-out plan.
	shardOf := c.shardOf[:0]
	multi := false
	for _, k := range keys {
		s := app.ShardOfKey(k, c.shards)
		shardOf = append(shardOf, s)
		multi = multi || s != shardOf[0]
	}
	c.shardOf = shardOf
	if !multi {
		return shardOf[0], nil, nil
	}
	if c.legOf == nil {
		c.legOf = make([]int, c.shards)
	}
	n := 0
	for _, s := range shardOf {
		if c.legOf[s] == 0 {
			c.legOf[s] = 1
			n++
		}
	}
	plan := c.plans.Get()
	if plan == nil {
		plan = new(splitPlan)
	}
	plan.reset(n)
	for s, touched := range c.legOf {
		if touched != 0 {
			plan.shards = append(plan.shards, s)
			c.legOf[s] = len(plan.shards)
		}
	}
	for i, s := range shardOf {
		leg := c.legOf[s] - 1
		plan.legKeys[leg] = append(plan.legKeys[leg], i)
	}
	for _, s := range plan.shards {
		c.legOf[s] = 0
	}
	return MultiShard, plan, nil
}

// Invoke routes payload to the group owning its keys and submits it; done
// receives the f+1-confirmed result and end-to-end latency. It returns the
// shard chosen, or MultiShard for a request executed across groups
// (scatter-gather read: done receives the merged result and the max
// per-leg latency; 2PC write: done receives the transaction outcome —
// []byte{app.StatusOK} on commit, []byte{app.StatusAborted} on abort — and
// the full transaction latency). On a routing error (unroutable request,
// or a cross-shard request the application's capabilities cannot execute)
// nothing is submitted, done is never called, and the error is returned.
func (c *Client) Invoke(payload []byte, done func(result []byte, latency sim.Duration)) (int, error) {
	s, plan, err := c.plan(payload)
	if err != nil {
		return -1, err
	}
	if plan == nil {
		if s < 0 || s >= c.shards {
			return -1, fmt.Errorf("shard: routed to shard %d of %d", s, c.shards)
		}
		read := (c.strongReads || c.fastReads) && c.frag.ReadOnly(payload)
		c.cc.Call(s, payload, consensus.Mode{Read: read, Strong: read && c.strongReads}, done)
		return s, nil
	}
	switch {
	case c.frag == nil:
		err = ErrCrossShard
	case c.frag.ReadOnly(payload):
		err = c.scatterRead(payload, plan, done)
	case !c.canTxn:
		err = ErrCrossShard
	default:
		err = c.beginTx(payload, plan, done)
	}
	if err != nil {
		c.plans.Put(plan) // nothing was submitted
		return -1, err
	}
	return MultiShard, nil
}

// Scatter-gather legs answered StatusLocked — the group's wait queue was
// full, so the leg could not park on the in-flight transaction — retry
// until the transaction resolves. The delay is deterministic virtual time;
// the cap outlasts PrepareTimeout comfortably, so a transaction that
// aborts on timeout frees the reader well before it gives up (after the
// cap, the StatusLocked surfaces through the merge).
const (
	lockedRetryDelay = 50 * sim.Microsecond
	lockedRetryMax   = 100
)

// scatter is one cross-shard read in flight: its plan and fragments, and
// per leg what the leg answered and how far its retries went. The leg
// callbacks are bound once, when the record is made.
type scatter struct {
	c       *Client
	payload []byte
	plan    *splitPlan
	start   sim.Time
	done    func(result []byte, latency sim.Duration)
	// legs holds one fragment per leg, each in a buffer the record keeps:
	// the consensus client reads a leg's fragment again on every rung of its
	// read, so a buffer is rewritten only by the record's next read.
	legs [][]byte

	results   [][]byte
	remaining int // legs of the current round still unanswered

	// The fast stage (runRound): per leg the pin of the current
	// round (0: an unpinned sample), the highest frontier seen and whether
	// its last answer was clean.
	pins    []consensus.Slot
	fronts  []consensus.Slot
	clean   []bool
	anyFell bool
	round   int

	// The ordered stage (readOrdered): per leg whether it parked
	// and how many StatusLocked retries its current read made.
	parked     []bool
	attempts   []int
	revalidate bool

	onFast    []func(consensus.Outcome)
	onOrdered []func(consensus.Outcome)
	onRetry   []func()
}

// bindLegs makes the record's per-leg callbacks for legs it has not had yet.
func (sc *scatter) bindLegs(n int) {
	for i := len(sc.onFast); i < n; i++ {
		sc.onFast = append(sc.onFast, func(o consensus.Outcome) { sc.fastAnswer(i, o) })
		sc.onOrdered = append(sc.onOrdered, func(o consensus.Outcome) { sc.orderedAnswer(i, o) })
		sc.onRetry = append(sc.onRetry, func() { sc.sendOrdered(i) })
	}
}

// scatterRead fans one fragment per touched group, merges the per-leg
// responses deterministically back into the original key order, and
// reports the latency of the slowest leg (the client-observed critical
// path). Legs over transaction-locked keys normally park in the group's
// wait queue and answer when the transaction resolves, so a reader cannot
// observe a cross-shard write mid-commit. With FastReads off the read is
// the plain ordered scatter — on which a leg delayed past the whole
// transaction on one shard while a sibling leg ran before it can still see
// a pre/post mix; the fast path closes that by pinning every leg to an MVCC
// snapshot version, see the fast stage (runRound). The read owns plan from
// here on, unless it fails to start.
func (c *Client) scatterRead(payload []byte, plan *splitPlan, done func(result []byte, latency sim.Duration)) error {
	sc := c.scatters.Get()
	if sc == nil {
		sc = &scatter{c: c}
	}
	n := len(plan.legKeys)
	sc.legs = extend(sc.legs, n)
	for i, idx := range plan.legKeys {
		leg, err := c.frag.Fragment(sc.legs[i][:0], payload, idx)
		sc.legs[i] = leg
		if err != nil {
			c.releaseScatter(sc)
			return err
		}
	}
	sc.payload, sc.plan, sc.start, sc.done = payload, plan, c.cc.Proc().Now(), done
	sc.results = resize(sc.results, n)
	sc.bindLegs(n)
	if c.fastReads {
		sc.pins, sc.fronts, sc.clean = resize(sc.pins, n), resize(sc.fronts, n), resize(sc.clean, n)
		sc.anyFell, sc.round = false, 0
		sc.runRound()
	} else {
		sc.readOrdered(false)
	}
	return nil
}

// releaseScatter keeps sc, with its legs' fragment buffers, for the next
// scatter read, and puts its plan back. Every leg has answered and no retry
// timer is pending.
func (c *Client) releaseScatter(sc *scatter) {
	if sc.plan != nil {
		c.plans.Put(sc.plan)
	}
	clear(sc.results) // views of reply frames
	sc.legs, sc.results = sc.legs[:0], sc.results[:0]
	sc.payload, sc.plan, sc.done = nil, nil, nil
	c.scatters.Put(sc)
}

// finish merges the legs' answers, releases the read and hands the caller
// the merged result.
func (sc *scatter) finish() {
	c := sc.c
	res := c.frag.Merge(sc.payload, sc.results, sc.plan.legKeys)
	done, lat := sc.done, c.cc.Proc().Now().Sub(sc.start)
	c.releaseScatter(sc)
	done(res, lat)
}

// snapRetryMax bounds the PINNED rounds of a fast scatter read after the
// initial unpinned sampling round. One pinned round resolves the common
// case (pin each leg at the frontier the sample revealed); a second
// absorbs one transaction committing between the rounds. Interference
// that outlasts both rounds — sustained cross-shard write pressure on the
// exact read set — degrades the whole read to the ordered scatter, which
// is always correct.
const snapRetryMax = 2

// The fast stage (runRound, fastAnswer, finishRound) is the
// snapshot-consistent fast scatter-gather over the applications' MVCC
// stores. It proceeds in client-barriered rounds:
//
//   - Round 0 samples every leg with an unpinned quorum read, which
//     reveals each group's frontier — the highest state version any of
//     its replies carried.
//   - Each following round re-reads EVERY leg pinned at its group's
//     frontier (CallAt with Mode.At > 0): replicas answer as-of
//     exactly that version from their version chains, deferring the reply
//     until they have executed that far, and flag the reply "crossed"
//     when the leg's keys are transaction-locked or a transaction wrote
//     them between the pin and the replica's present.
//
// The merge is accepted only when every leg is clean in the SAME round:
// pinned and uncrossed, or answered by a group that has never executed
// anything (version 0, vacuously transaction-free). That condition is a
// consistent snapshot cut. Proof sketch: suppose leg A's pinned result
// includes cross-shard transaction T while sibling leg B's omits it. A's
// pin came from a frontier observed in an earlier round, so T committed
// on A's group before B's round began; 2PC commits only after every
// participant prepared, so T's prepare was executed by f+1 replicas of
// B's group before B's pinned read was served. B's f+1 served replies
// intersect that prepared set in at least one replica, which at serving
// time held T's lock (crossed) or had resolved it — as a commit at a
// version ≤ B's pin (T included after all) or > it (crossed via the
// version chain). Either way B could not be both clean and pre-T.
//
// A crossed round re-pins all legs at the freshest frontiers and tries
// again. Any leg that falls back to the ordered path breaks the argument
// — an ordered result executes at whatever slot consensus assigns, not at
// a client-chosen pin — so a fallback abandons pinning and degrades the
// whole read to the ordered stage.

// runRound reads every leg at its pin.
func (sc *scatter) runRound() {
	sc.remaining = len(sc.legs)
	for i := range sc.legs {
		sc.c.cc.CallAt(sc.plan.shards[i], sc.legs[i], consensus.Mode{Read: true, At: sc.pins[i]}, sc.onFast[i])
	}
}

// fastAnswer takes leg i's answer in a fast round.
func (sc *scatter) fastAnswer(i int, o consensus.Outcome) {
	sc.results[i] = o.Result
	if o.Frontier > sc.fronts[i] {
		sc.fronts[i] = o.Frontier
	}
	sc.anyFell = sc.anyFell || o.FellBack
	sc.clean[i] = !o.FellBack && !o.Crossed && (sc.pins[i] > 0 || (o.Slot == 0 && o.Frontier == 0))
	sc.remaining--
	if sc.remaining == 0 {
		sc.finishRound()
	}
}

// finishRound accepts a clean cut, pins another round, or degrades.
func (sc *scatter) finishRound() {
	if sc.anyFell {
		sc.readOrdered(true)
		return
	}
	allClean := true
	for _, ok := range sc.clean {
		allClean = allClean && ok
	}
	if allClean {
		sc.finish()
		return
	}
	if sc.round >= snapRetryMax {
		sc.readOrdered(true)
		return
	}
	sc.round++
	copy(sc.pins, sc.fronts) // still 0 for an idle group: fresh sample
	sc.runRound()
}

// readOrdered is the ordered stage: one ordered read per leg with a
// bounded StatusLocked retry, merged when the last leg answers. It is the
// whole read when FastReads is off, and the degraded stage of a fast
// scatter read, which enters it with revalidate set: then — only when some
// leg actually parked behind an in-flight transaction, which the replicas
// vouch for with the quorum-checked parked marker — the legs that did not
// park are read once more. The re-read is proposed after the parked leg's
// transaction resolved, and every transaction step is an earlier
// consensus-ordered command, so by in-order execution it observes that
// transaction committed or locked-then-parked — never the pre-transaction
// state its first read may have returned. A fallback that merely lost a
// packet or timed out triggers no extra round.
func (sc *scatter) readOrdered(revalidate bool) {
	n := len(sc.legs)
	sc.revalidate = revalidate
	sc.parked, sc.attempts = resize(sc.parked, n), resize(sc.attempts, n)
	clear(sc.results)
	sc.remaining = n
	for i := range sc.legs {
		sc.sendOrdered(i)
	}
}

// sendOrdered reads leg i on the ordered path.
func (sc *scatter) sendOrdered(i int) {
	sc.c.cc.CallAt(sc.plan.shards[i], sc.legs[i], consensus.Mode{}, sc.onOrdered[i])
}

// orderedAnswer takes leg i's ordered answer, or retries a StatusLocked one.
func (sc *scatter) orderedAnswer(i int, o consensus.Outcome) {
	if len(o.Result) == 1 && o.Result[0] == app.StatusLocked && sc.attempts[i] < lockedRetryMax {
		sc.attempts[i]++
		sc.c.cc.Proc().After(lockedRetryDelay, sc.onRetry[i])
		return
	}
	sc.results[i] = o.Result
	sc.parked[i] = sc.parked[i] || o.Crossed
	sc.remaining--
	if sc.remaining == 0 {
		sc.finishOrdered()
	}
}

// finishOrdered revalidates once if it must, then merges.
func (sc *scatter) finishOrdered() {
	if sc.revalidate {
		sc.revalidate = false
		anyParked, redo := false, 0
		for _, p := range sc.parked {
			anyParked = anyParked || p
			if !p {
				redo++
			}
		}
		if anyParked && redo > 0 {
			sc.remaining = redo
			for i, p := range sc.parked {
				if !p {
					sc.attempts[i] = 0
					sc.sendOrdered(i)
				}
			}
			return
		}
	}
	sc.finish()
}

// Pending reports how many requests await confirmation (bounded-memory
// diagnostics: abandoned transactions must not accumulate pending state).
func (c *Client) Pending() int { return c.cc.PendingCount() }

// ReadStats reports how many reads the unordered fast path answered and
// how many fell back to the ordered path (benchmark and test surface).
func (c *Client) ReadStats() (fast, fallbacks uint64) {
	return c.cc.FastReads, c.cc.ReadFallbacks
}

// ReadWidens reports how many fast reads had to ask the rest of a group
// after their first f+1 replicas could not supply the quorum in time.
func (c *Client) ReadWidens() uint64 { return c.cc.ReadWidens }

// StrongReadStats reports how many reads the strong 2f+1 quorum answered
// without falling back (fallbacks are counted in ReadStats).
func (c *Client) StrongReadStats() uint64 { return c.cc.StrongReads }

// ReadFloor exposes the client's monotonic read floor for one group (the
// Byzantine harness asserts forged replies can never inflate it).
func (c *Client) ReadFloor(group int) consensus.Slot { return c.cc.ReadFloor(group) }
