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

// LatNotSubmitted is the sentinel latency InvokeSync reports when routing
// failed and the request was never submitted (distinct from the cluster
// timeout/stall sentinels, which imply the request was in flight).
const LatNotSubmitted = sim.Duration(-3)

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
// in every replica and client. Not a deployment surface: the Byzantine
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
// until the result arrives, and returns (result, latency, shard). Failure
// outcomes mirror cluster.InvokeSyncErr: cluster.ErrTimeout when maxWait
// elapses, cluster.ErrStalled when the engine runs dry, or a routing error
// (in which case nothing was submitted).
func (d *Deployment) InvokeSync(ci int, payload []byte, maxWait sim.Duration) ([]byte, sim.Duration, error) {
	var result []byte
	lat := sim.Duration(-1)
	fired := false
	if _, err := d.Clients[ci].Invoke(payload, func(res []byte, l sim.Duration) {
		result, lat, fired = res, l, true
	}); err != nil {
		return nil, LatNotSubmitted, err
	}
	if err := cluster.SyncWait(d.Eng, maxWait, func() bool { return fired }); err != nil {
		return nil, cluster.FailureLatency(err), err
	}
	return result, lat, nil
}

// Client is a shard-aware uBFT client: it owns one host endpoint, routes
// each request to the group owning its keys, and collects f+1 matching
// responses from that group's replicas. Requests spanning shards execute
// across groups via the application's capabilities: read-only requests
// scatter-gather (Fragmenter), multi-key writes run the 2PC protocol in
// txn.go (TxnParticipant) with this client as the transaction driver, and
// any client can sweep for and resolve transactions another driver left
// stranded (recovery.go).
type Client struct {
	cc          *consensus.Client
	id          ids.ID
	shards      int
	router      app.Router
	keys        [][]byte // plan's scratch: the keys of the request it routes
	frag        app.Fragmenter
	canTxn      bool
	fastReads   bool
	strongReads bool
	txSeq       uint32
	rec         *recovery // nil until the first SweepStranded
}

// splitPlan is the fan-out plan of one cross-shard request: the touched
// shards in ascending order and, per shard, the original key indices it
// owns. shards[0] doubles as the deterministic 2PC coordinator group.
type splitPlan struct {
	shards  []int
	legKeys [][]int
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
	shardOf := make([]int, len(keys))
	multi := false
	for i, k := range keys {
		shardOf[i] = app.ShardOfKey(k, c.shards)
		if shardOf[i] != shardOf[0] {
			multi = true
		}
	}
	if !multi {
		return shardOf[0], nil, nil
	}
	perShard := make(map[int][]int)
	for i, s := range shardOf {
		perShard[s] = append(perShard[s], i)
	}
	plan := &splitPlan{}
	for s := 0; s < c.shards; s++ {
		if idx, ok := perShard[s]; ok {
			plan.shards = append(plan.shards, s)
			plan.legKeys = append(plan.legKeys, idx)
		}
	}
	return MultiShard, plan, nil
}

// fragments builds the per-shard request fragments of a plan.
func (c *Client) fragments(payload []byte, plan *splitPlan) ([][]byte, error) {
	frags := make([][]byte, len(plan.shards))
	for i, idx := range plan.legKeys {
		f, err := c.frag.Fragment(payload, idx)
		if err != nil {
			return nil, err
		}
		frags[i] = f
	}
	return frags, nil
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
	if c.frag == nil {
		return -1, ErrCrossShard
	}
	if c.frag.ReadOnly(payload) {
		if err := c.scatterRead(payload, plan, done); err != nil {
			return -1, err
		}
		return MultiShard, nil
	}
	if !c.canTxn {
		return -1, ErrCrossShard
	}
	if err := c.beginTx(payload, plan, done); err != nil {
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

// scatterRead fans one fragment per touched group, merges the per-leg
// responses deterministically back into the original key order, and
// reports the latency of the slowest leg (the client-observed critical
// path). Legs over transaction-locked keys normally park in the group's
// wait queue and answer when the transaction resolves, so a reader cannot
// observe a cross-shard write mid-commit. With FastReads off the read is
// the plain ordered scatter — on which a leg delayed past the whole
// transaction on one shard while a sibling leg ran before it can still see
// a pre/post mix; the fast path closes that by pinning every leg to an MVCC
// snapshot version, see scatterReadFast.
func (c *Client) scatterRead(payload []byte, plan *splitPlan, done func(result []byte, latency sim.Duration)) error {
	legs, err := c.fragments(payload, plan)
	if err != nil {
		return err
	}
	if c.fastReads {
		c.scatterReadFast(payload, legs, plan, done)
	} else {
		c.scatterReadOrdered(payload, legs, plan, c.cc.Proc().Now(), false, done)
	}
	return nil
}

// snapRetryMax bounds the PINNED rounds of a fast scatter read after the
// initial unpinned sampling round. One pinned round resolves the common
// case (pin each leg at the frontier the sample revealed); a second
// absorbs one transaction committing between the rounds. Interference
// that outlasts both rounds — sustained cross-shard write pressure on the
// exact read set — degrades the whole read to the ordered scatter, which
// is always correct.
const snapRetryMax = 2

// scatterReadFast is the snapshot-consistent fast scatter-gather over the
// applications' MVCC stores. It proceeds in client-barriered rounds:
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
// whole read to scatterReadOrdered.
func (c *Client) scatterReadFast(payload []byte, legs [][]byte, plan *splitPlan, done func(result []byte, latency sim.Duration)) {
	start := c.cc.Proc().Now()
	n := len(legs)
	results := make([][]byte, n)
	pins := make([]consensus.Slot, n) // 0 = unpinned sample this round
	fronts := make([]consensus.Slot, n)
	clean := make([]bool, n)
	anyFell := false
	round := 0
	remaining := 0
	var finishRound func()
	send := func(i int) {
		c.cc.CallAt(plan.shards[i], legs[i], consensus.Mode{Read: true, At: pins[i]}, func(o consensus.Outcome) {
			results[i] = o.Result
			if o.Frontier > fronts[i] {
				fronts[i] = o.Frontier
			}
			anyFell = anyFell || o.FellBack
			clean[i] = !o.FellBack && !o.Crossed && (pins[i] > 0 || (o.Slot == 0 && o.Frontier == 0))
			remaining--
			if remaining == 0 {
				finishRound()
			}
		})
	}
	runRound := func() {
		remaining = n
		for i := range legs {
			send(i)
		}
	}
	finishRound = func() {
		if anyFell {
			c.scatterReadOrdered(payload, legs, plan, start, true, done)
			return
		}
		allClean := true
		for i := range legs {
			allClean = allClean && clean[i]
		}
		if allClean {
			done(c.frag.Merge(payload, results, plan.legKeys), c.cc.Proc().Now().Sub(start))
			return
		}
		if round >= snapRetryMax {
			c.scatterReadOrdered(payload, legs, plan, start, true, done)
			return
		}
		round++
		for i := range legs {
			pins[i] = fronts[i] // still 0 for an idle group: fresh sample
		}
		runRound()
	}
	runRound()
}

// scatterReadOrdered is the ordered scatter: one ordered read per leg with
// a bounded StatusLocked retry, merged when the last leg answers. It is
// the whole read when FastReads is off, and the degraded stage of a fast
// scatter read, which enters it with revalidate set: then — only when some
// leg actually parked behind an in-flight transaction, which the replicas
// vouch for with the quorum-checked parked marker — the legs that did not
// park are read once more. The re-read is proposed after the parked leg's
// transaction resolved, and every transaction step is an earlier
// consensus-ordered command, so by in-order execution it observes that
// transaction committed or locked-then-parked — never the pre-transaction
// state its first read may have returned. A fallback that merely lost a
// packet or timed out triggers no extra round.
func (c *Client) scatterReadOrdered(payload []byte, legs [][]byte, plan *splitPlan, start sim.Time, revalidate bool, done func(result []byte, latency sim.Duration)) {
	n := len(legs)
	results := make([][]byte, n)
	parked := make([]bool, n)
	remaining := n
	var finish func()
	var send func(i, attempt int)
	send = func(i, attempt int) {
		c.cc.CallAt(plan.shards[i], legs[i], consensus.Mode{}, func(o consensus.Outcome) {
			if len(o.Result) == 1 && o.Result[0] == app.StatusLocked && attempt < lockedRetryMax {
				c.cc.Proc().After(lockedRetryDelay, func() { send(i, attempt+1) })
				return
			}
			results[i] = o.Result
			parked[i] = parked[i] || o.Crossed
			remaining--
			if remaining == 0 {
				finish()
			}
		})
	}
	finish = func() {
		if revalidate {
			revalidate = false
			anyParked := false
			for i := range legs {
				anyParked = anyParked || parked[i]
			}
			if anyParked {
				var redo []int
				for i := range legs {
					if !parked[i] {
						redo = append(redo, i)
					}
				}
				if len(redo) > 0 {
					remaining = len(redo)
					for _, i := range redo {
						send(i, 0)
					}
					return
				}
			}
		}
		done(c.frag.Merge(payload, results, plan.legKeys), c.cc.Proc().Now().Sub(start))
	}
	for i := range legs {
		send(i, 0)
	}
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
