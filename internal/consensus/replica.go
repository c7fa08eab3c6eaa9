// Package consensus implements uBFT's state-machine replication engine
// (paper §5, Algorithms 2-5): a PBFT-layout protocol rebuilt for 2f+1
// replicas on top of Consistent Tail Broadcast, with a signature-free fast
// path (Prepare / WillCertify / WillCommit), a signed slow path (Prepare /
// Certify / Commit over SWMR registers), application checkpoints that
// advance a sliding window of consensus slots, PBFT-style view changes,
// and CTBcast summaries for finite memory.
package consensus

import (
	"fmt"
	"slices"

	"repro/internal/app"
	"repro/internal/ctbcast"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/memnode"
	"repro/internal/msgring"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/swmr"
	"repro/internal/tbcast"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// Config assembles one replica. All replicas must use identical values for
// everything except Self.
type Config struct {
	Self     ids.ID
	Replicas []ids.ID // 2f+1, in globally agreed order: f is (len-1)/2
	MemNodes []ids.ID // 2Fm+1 memory nodes
	Fm       int

	// Window is the checkpoint window size (open slots per checkpoint,
	// paper §7: 256).
	Window int
	// Tail is CTBcast's t (paper §7 default: 128).
	Tail int
	// MsgCap bounds request size.
	MsgCap int

	// SlowPathDelay is the per-slot fallback timeout from Prepare delivery
	// to engaging the slow path, and the CTBcast groups' fallback timeout
	// from LOCK to SIGNED (FastWithFallback). Must be positive unless
	// CTBMode is SlowOnly (cluster.Options turns 0 into 1ms).
	SlowPathDelay sim.Duration
	// CTBMode configures the underlying CTBcast groups. Unless it is
	// SlowOnly, slots also run the WillCertify/WillCommit fast path; with
	// it every slot runs the signed slow path (Certify/Commit).
	CTBMode ctbcast.PathMode
	// ViewChangeTimeout is the leader-suspicion timeout (§5.3), doubled per
	// view change that does not restore progress. Must be positive: every
	// replica suspects a leader that leaves its work undecided
	// (cluster.Options turns 0 into 2ms).
	ViewChangeTimeout sim.Duration
	// RegionOffset shifts this deployment's SWMR regions on the memory
	// nodes, letting several independent replicated applications share the
	// same memory nodes (§1: "they can be shared among many applications").
	RegionOffset memnode.RegionID

	// JoinNonce, when non-zero, boots the replica in the recovering state
	// of the cold-rejoin protocol (rejoin.go): it probes the cluster for a
	// sync point, pulls the certified snapshot, and observes (no proposals,
	// echoes or votes) until the first post-join stable checkpoint. Set it
	// when re-creating a replica that crashed and lost all in-memory state,
	// strictly above every nonce that identity used before: peers reset the
	// joiner's broadcast channels only when the nonce increases, so probe
	// retransmissions are idempotent and a zero nonce could reset nothing.
	JoinNonce uint64

	App app.StateMachine
}

func (c *Config) n() int { return len(c.Replicas) }

// f is the number of Byzantine replicas the group tolerates.
func (c *Config) f() int { return (len(c.Replicas) - 1) / 2 }

// fastPath reports whether slots run the WillCertify/WillCommit fast path.
func (c *Config) fastPath() bool { return c.CTBMode != ctbcast.SlowOnly }

// groupMsgCap is the per-message byte cap of the consensus CTBcast
// channels: the client-request cap plus room for consensus framing and
// certificates. A NEW_VIEW larger than this travels as a fragment train
// (see broadcastNewView / tagNewViewFrag).
func (c *Config) groupMsgCap() int { return c.MsgCap + 4096 }

// SummaryCap is the byte cap of a channel summary, which is one replica's
// certified state: at most a window of COMMITs, each a request with its
// certificate, and a checkpoint. A summary is the largest message the stack
// sends, one transport frame.
func (c *Config) SummaryCap() int { return c.Window*(c.MsgCap+512) + 4096 }

// leaderOf returns the leader of view v (round-robin, §5.3).
func (c *Config) leaderOf(v View) ids.ID { return c.Replicas[int(uint64(v)%uint64(c.n()))] }

func (c *Config) indexOf(p ids.ID) int {
	for i, r := range c.Replicas {
		if r == p {
			return i
		}
	}
	return -1
}

// Instance / region layout: each replica i owns a block of n+2 ring
// instances, its CTBcast group's n+1 (the broadcaster channel, then the
// LOCKED channel of each member in Replicas order) and its auxiliary TBcast
// channel. RingOf is the inverse.
func (c *Config) groupInstanceBase(i int) msgring.Instance {
	return msgring.Instance(i * (c.n() + 2))
}
func (c *Config) auxInstance(i int) msgring.Instance {
	return c.groupInstanceBase(i) + msgring.Instance(c.n()+1)
}

// RingKind says which of its owner's channels a ring instance is.
type RingKind uint8

const (
	RingBroadcast RingKind = iota // the owner's CTBcast channel: LOCK, SIGNED, SUMMARY
	RingLocked                    // a member's LOCKED channel in the owner's group
	RingAux                       // the owner's auxiliary TBcast channel
)

// RingOf inverts the instance layout of a group of n > 0 replicas: the index
// of the replica whose block holds inst, and which of its channels inst is
// (block position 0, 1 to n, n+1).
func RingOf(n int, inst msgring.Instance) (owner int, kind RingKind) {
	owner, at := int(inst)/(n+2), int(inst)%(n+2)
	return owner, RingKind(min(at, 1) + at/(n+1))
}
func (c *Config) regionBase(i int) memnode.RegionID {
	return c.RegionOffset + memnode.RegionID(i*c.n()*c.Tail)
}

// RegionSpan returns how many region IDs a deployment with this config
// occupies on each memory node (for allocating the next application's
// RegionOffset when sharing memory nodes).
func (c *Config) RegionSpan() memnode.RegionID {
	return memnode.RegionID(c.n() * c.n() * c.Tail)
}

// auxSlotCap bounds auxiliary messages (certify shares and promises).
const auxSlotCap = 512

// EchoTimeout bounds how long the leader waits for followers to echo a
// client request before proposing anyway, and so how long a Byzantine client
// that sent its request to only some replicas can delay it (§5.4).
const EchoTimeout = 100 * sim.Microsecond

// replicaState is state[p] of Algorithm 2: this replica's view of what
// broadcaster p has CTBcast, updated strictly in FIFO order.
type replicaState struct {
	view        View
	sealedView  View
	newViewUsed bool // p broadcast a non-CHECKPOINT message in its current view
	prepares    map[Slot]Prepare
	commits     commitLog
	checkpoint  Checkpoint

	// plan is the re-proposal plan of the last NEW_VIEW p broadcast, which
	// opened view planView; planned is false until p's first is adopted.
	plan     nvPlan
	planView View
	planned  bool

	// NEW_VIEW fragment reassembly (a NEW_VIEW exceeding the channel's
	// per-message cap travels as a FIFO train of tagNewViewFrag chunks).
	// With no train in progress — none begun, or its prefix skipped by a
	// summary jump — chunks other than a first are discarded without
	// branding p Byzantine, exactly as a monolithic NEW_VIEW inside the
	// summarized gap would be.
	nvBuf   []byte
	nvView  View
	nvTotal int // chunks expected; 0 = no train in progress
	nvNext  int // next chunk index expected

	// cpWait is the CHECKPOINT p's channel waits on (ctbcast.Wait) while the
	// checkpoint collector may still certify it, signatures left out; Seq 0
	// means none.
	cpWait Checkpoint

	// held is p's highest CERTIFY_CHECKPOINT share beyond what admits takes:
	// a share can reach a lagging replica before what would move its stable
	// checkpoint does. maybeCheckpoint offers it again; seq 0 means none.
	held cpShare
}

// cpShare is one CERTIFY_CHECKPOINT share.
type cpShare struct {
	seq Slot
	dg  [xcrypto.DigestLen]byte
	sig xcrypto.Signature
}

// dropNewViewTrain forgets the fragment train in progress, if any.
func (st *replicaState) dropNewViewTrain() { st.nvBuf, st.nvTotal, st.nvNext = nil, 0, 0 }

// Replica is one uBFT consensus participant.
type Replica struct {
	cfg    Config
	rt     *router.Router
	proc   *sim.Proc
	bgProc *sim.Proc // crypto thread pool for bookkeeping signatures
	signer *xcrypto.Signer

	hub    *msgring.Hub
	ackHub *tbcast.AckHub
	store  *swmr.Store
	sumHub *ctbcast.SummaryHub

	view     View
	nextSlot Slot
	chkpt    Checkpoint // this replica's current stable checkpoint
	// The snapshot pull (checkpoint.go), live while lastApplied < chkpt.Seq:
	// the pending retry and how many signers have been asked.
	pullTimer sim.Timer
	pullTries int

	state map[ids.ID]*replicaState

	// What the replica remembers per slot, per request digest, per client
	// and per checkpoint sequence number (and, below, per view): record
	// types, mutators and the prune rules are in tables.go. The slot and
	// request tables recycle their records through a free list each.
	slots    table[Slot, slotState]
	requests table[[xcrypto.DigestLen]byte, reqState]
	clients  table[ids.ID, clientState]
	cps      table[Slot, cpState]
	// settled holds the CERTIFY signatures verified in COMMITs about slots
	// below the stable checkpoint that have no record, by view and slot,
	// until the next stable checkpoint (verifyCertifySig, settledShares).
	settled      table[[2]uint64, digestShares]
	freeSlots    wire.FreeList[slotState]
	freeRequests wire.FreeList[reqState]
	// The blocks new records and a decoded container's sub-requests are
	// carved from (wire.Carve): what is left of each one's current array. The
	// leader's containers are carved from batchSlab.
	slotBlock  []slotRec
	shareBlock digestShares
	reqBlock   []reqState
	subsRest   []Request
	batchSlab  wire.Slab
	// enc is the encode buffer of every message this replica broadcasts
	// itself (PREPARE, CERTIFY, WILL_*, COMMIT) and of the requests it
	// digests: a broadcast copies its message into a ring frame before it
	// returns, and a digest is taken before the encoding it would overwrite.
	enc []byte

	lastApplied Slot // next slot to apply

	groups map[ids.ID]*ctbcast.Group
	auxOut *tbcast.Broadcaster

	// anyParked is false only if no slot holds a waitingReq: set when a
	// PREPARE parks, cleared by the walk that finds none left
	// (releaseParked).
	anyParked bool

	// Proposal pipeline.
	proposeQ []Request
	// freshScratch is takeProposal's reusable staging slice; its contents
	// are copied (by value) into the Prepare before the next call.
	freshScratch []Request
	// inFlight is the proposal gate: the view and slot of this leader's
	// latest fresh-request PREPARE. While that slot is undecided in that
	// view, later requests queue and ride the next PREPARE together (see
	// pumpProposals).
	inFlight struct {
		view View
		slot Slot
		set  bool
	}
	// fastPathLive is what the gate presumes: slots decide in a few
	// microseconds, by unanimity. It holds from a fast-path decision until
	// this replica signs a CERTIFY share (a slot fell back, or the view is
	// being sealed) or enters a new view. While it does not hold every slot
	// costs hundreds of microseconds of signatures and the suspicion
	// timeout is sized to one such slot, not two in a row: the leader then
	// proposes without waiting, as the paper's prototype does.
	fastPathLive bool
	// deferredResp maps a wait-queue ticket (a request parked on a
	// transaction lock by a Deferring application) to the client owed the
	// response when the lock releases. Pruned with the client table.
	deferredResp map[uint64]deferredTarget

	// MVCC capability caches (nil when the application is unversioned) and
	// the bounded queue of pinned reads parked until execution reaches
	// their pin (see serveReadAt).
	appVer      app.Versioned
	appVerRead  app.VersionedReadExecutor
	pinnedReads []pinnedRead
	// reads is the two read lanes (rpc.go): the read core, a process of its
	// own, and the crypto pool (bgProc), which take fast reads from one
	// FIFO. Each is charged its reads' execution and sends their replies,
	// so the main process never waits behind a read.
	reads readLanes
	// appReads classifies ordered commands (nil when the application cannot
	// tell a read); servesFastReads is set by this replica's first fast read
	// and never cleared. Until then the read core executes ordered reads
	// (applyOne). After it they stay on the main process: fast reads load
	// the three read cores unevenly, so an ordered read's replies would
	// leave them far apart, and under rotating silence a client that never
	// retransmits strands (TestReusedRecordsNeverRewritePendingCalls wedges
	// at each of seeds 1-12 without the flag).
	appReads        interface{ ReadOnly(req []byte) bool }
	servesFastReads bool

	// Cold-rejoin state (rejoin.go). joinPhase tracks this replica's own
	// recovery; peerJoinNonce tracks the highest incarnation seen per peer
	// (channel resets fire only on an increase).
	joinPhase      joinPhase
	joinSyncSeq    Slot // stable-checkpoint seq of the adopted sync point
	joinAnswers    map[ids.ID]joinAnswer
	joinProbeTimer sim.Timer
	peerJoinNonce  map[ids.ID]uint64
	// noLeadView blocks proposing while r.view equals it (set on resume):
	// an amnesiac leader re-proposing a slot it already prepared pre-crash
	// in the same view would trip peers' duplicate-prepare check. The
	// followers' suspicion timers rotate leadership instead. Views start at
	// 0, so the sentinel for "no block" is noLeadSet=false.
	noLeadView View
	noLeadSet  bool

	// View change state. views holds one record per view this replica is
	// elected to lead (tables.go); setView prunes it.
	sealTarget    View // view being sealed into (0 = not sealing)
	vcStreak      int  // consecutive view changes without progress (backoff)
	views         table[View, viewRec]
	progressTimer sim.Timer
	suspect       func() // progressTimer's callback, bound once so arming it allocates nothing

	// The crypto pool's completions of a CERTIFY_CHECKPOINT share
	// (ownCheckpointShare, checkpointVerdict), bound once.
	ownCheckpointShareFn, checkpointVerdictFn func(*xcrypto.Job)

	// noEchoWait is Defenses.NoEchoWait: no echo round, no waiting for it.
	noEchoWait bool
	// onDecided and onExecuted are Deps.Decided and Deps.Executed (nil: unobserved).
	onDecided  func(self ids.ID, s Slot, v View, req *Request)
	onExecuted func(self, client ids.ID, num uint64, s Slot)

	// Stats.
	FastDecides uint64
	SlowDecides uint64
	ViewChanges uint64
	// NewViewFragsSent counts NEW_VIEW chunks this replica broadcast as a
	// new leader because the message exceeded the channel's per-message
	// cap (0 when every NEW_VIEW fit in one message).
	NewViewFragsSent uint64
	Executed         uint64
	// Rejoins counts completed cold rejoins (probe -> sync -> observe ->
	// resume); it flips to 1 when a cold-joining replica regains full
	// participation.
	Rejoins uint64
	// ReadsServed counts unordered fast-path reads executed tentatively
	// against last-applied state.
	ReadsServed uint64
	// DeferredCharged accumulates the ExecCost charged for parked requests
	// when they execute at lock release (the proc-model honesty fix: parked
	// requests must not run "free" inside the releasing command's Apply).
	DeferredCharged sim.Duration
	// lateProposals counts requests proposed BELOW the client's highest
	// already-proposed number (the EchoTimeout path completing after its
	// successors). Diagnostics; see accessors.
	lateProposals uint64
	// cpCertChecks counts the CHECKPOINT certificates verified on the main
	// process (verifyCheckpointCert past its cache). Diagnostics for tests.
	cpCertChecks uint64
}

// Deps bundles the per-host infrastructure the replica plugs into.
type Deps struct {
	RT       *router.Router
	Registry *xcrypto.Registry
	Defenses Defenses

	// Decided and Executed, when set, observe this replica's decisions and
	// executions for the deployment's agreement oracle (internal/cluster
	// installs them; nothing configures them). Decided runs once slot s is
	// marked decided, with the view whose votes or COMMITs decided it;
	// Executed runs when a client request passes the exactly-once check,
	// before the application applies it. Neither may keep req or charge time.
	Decided  func(self ids.ID, s Slot, v View, req *Request)
	Executed func(self, client ids.ID, num uint64, s Slot)
}

// Defenses switches individual protocol defenses OFF; the zero value is a
// production stack with every defense on. It exists so the adversarial
// suite (internal/byz/scenario) can prove its invariant checker trips once
// a defense is gone, and for the paper's no-echo-round ablation. It is
// deliberately absent from every deployment option struct: the
// BuildWithDefenses entry points of internal/cluster and internal/shard
// pass it to the deployment assembler, which hands it to replicas (Deps)
// at construction. A client-side defense is not switched off: the suite
// infects f+1 replicas instead (scenario.Config.BeyondF).
type Defenses struct {
	// FirstLockDelivers: CTBcast delivers on the first LOCK instead of
	// LOCKED unanimity (ctbcast.Params.UnsafeFirstLockDelivers) — the
	// equivocation defense.
	FirstLockDelivers bool
	// NoEchoWait: followers endorse a PREPARE without holding the client's
	// direct request copy and the leader proposes without the echo round
	// (§5.4) instead of waiting up to EchoTimeout for it.
	NoEchoWait bool
}

// NewReplica wires a replica onto its host router.
func NewReplica(cfg Config, deps Deps) *Replica {
	if len(cfg.Replicas)%2 == 0 {
		panic(fmt.Sprintf("consensus: need 2f+1 replicas, got %d", len(cfg.Replicas)))
	}
	if len(cfg.Replicas) > 64 {
		// Fast-path vote sets are uint64 bitmasks indexed by replica
		// position; fail loudly rather than silently dropping votes.
		panic(fmt.Sprintf("consensus: vote bitmasks support at most 64 replicas, got %d", len(cfg.Replicas)))
	}
	if cfg.Window <= 0 || cfg.Tail <= 0 || cfg.ViewChangeTimeout <= 0 || cfg.fastPath() && cfg.SlowPathDelay <= 0 {
		panic("consensus: Window, Tail, ViewChangeTimeout and (unless SlowOnly) SlowPathDelay must be positive")
	}
	r := &Replica{
		cfg:           cfg,
		rt:            deps.RT,
		proc:          deps.RT.Node().Proc(),
		signer:        deps.Registry.Signer(cfg.Self),
		state:         make(map[ids.ID]*replicaState),
		slots:         make(table[Slot, slotState]),
		requests:      make(table[[xcrypto.DigestLen]byte, reqState]),
		clients:       make(table[ids.ID, clientState]),
		cps:           make(table[Slot, cpState]),
		settled:       make(table[[2]uint64, digestShares]),
		groups:        make(map[ids.ID]*ctbcast.Group),
		deferredResp:  make(map[uint64]deferredTarget),
		views:         make(table[View, viewRec]),
		joinAnswers:   make(map[ids.ID]joinAnswer),
		peerJoinNonce: make(map[ids.ID]uint64),
		fastPathLive:  cfg.fastPath(),
		noEchoWait:    deps.Defenses.NoEchoWait,
		onDecided:     deps.Decided,
		onExecuted:    deps.Executed,
	}
	r.suspect = r.onSuspicionTimeout
	r.ownCheckpointShareFn, r.checkpointVerdictFn = r.ownCheckpointShare, r.checkpointVerdict
	if v, ok := cfg.App.(app.Versioned); ok {
		r.appVer = v
	}
	if vr, ok := cfg.App.(app.VersionedReadExecutor); ok {
		r.appVerRead = vr
	}
	r.appReads, _ = cfg.App.(interface{ ReadOnly(req []byte) bool })
	initialCP := Checkpoint{Seq: 0, StateDigest: xcrypto.DigestNoCharge(cfg.App.Snapshot())}
	r.chkpt = initialCP
	r.cps.at(0).keepSnapshot(cfg.App.Snapshot())
	for _, p := range cfg.Replicas {
		r.state[p] = &replicaState{
			prepares:   make(map[Slot]Prepare),
			checkpoint: initialCP,
		}
	}

	r.hub = msgring.NewHub(deps.RT, r.proc)
	r.ackHub = tbcast.NewAckHub(deps.RT)
	r.store = swmr.NewStore(deps.RT, r.proc, cfg.MemNodes, cfg.Fm)
	r.sumHub = ctbcast.NewSummaryHub(deps.RT)
	r.bgProc = r.proc.NewCore(r.proc.Name() + "-crypto")
	r.reads.init(r, r.proc.NewCore(r.proc.Name()+"-read"), r.bgProc)

	env := ctbcast.Env{
		RT: deps.RT, Proc: r.proc, Hub: r.hub, AckHub: r.ackHub,
		Store: r.store, Signer: r.signer, SumHub: r.sumHub, BgProc: r.bgProc,
	}
	for i, p := range cfg.Replicas {
		p := p
		r.groups[p] = ctbcast.NewGroup(ctbcast.Params{
			Self:          cfg.Self,
			Broadcaster:   p,
			Procs:         cfg.Replicas,
			F:             cfg.f(),
			Tail:          cfg.Tail,
			MsgCap:        cfg.groupMsgCap(),
			SummaryCap:    cfg.SummaryCap(),
			Mode:          cfg.CTBMode,
			SlowPathDelay: cfg.SlowPathDelay,

			UnsafeFirstLockDelivers: deps.Defenses.FirstLockDelivers,
			InstanceBase:            cfg.groupInstanceBase(i),
			RegionBase:              cfg.regionBase(i),
			Validate:                func(k uint64, m []byte) ctbcast.Verdict { return r.onConsensusMsg(p, m) },
			Capture:                 func(id uint64) []byte { return r.captureState(p) },
			ApplySummary:            func(id uint64, st []byte) { r.applySummary(p, st) },
		}, env)
	}

	// Auxiliary channel: my CERTIFY / WILL_* / CERTIFY_CHECKPOINT stream.
	myIdx := cfg.indexOf(cfg.Self)
	r.auxOut = tbcast.NewBroadcaster(tbcast.Config{
		RT: deps.RT, Proc: r.proc, AckHub: r.ackHub,
		Instance:    cfg.auxInstance(myIdx),
		Receivers:   ids.Others(cfg.Replicas, cfg.Self),
		Slots:       4 * cfg.Window,
		SlotCap:     auxSlotCap,
		SelfDeliver: func(_ uint64, m []byte) { r.onAuxMsg(cfg.Self, m) },
	})
	for i, p := range cfg.Replicas {
		if p == cfg.Self {
			continue
		}
		p := p
		tbcast.Listen(r.hub, deps.RT, r.proc, p, cfg.auxInstance(i), 4*cfg.Window, auxSlotCap,
			func(_ uint64, m []byte) { r.onAuxMsg(p, m) })
	}

	deps.RT.RegisterFrame(router.ChanDirect, r.onDirect)
	deps.RT.Register(router.ChanRPC, r.onRPC)
	deps.RT.Node().SetIntake(isReadRequest)
	if cfg.JoinNonce != 0 {
		r.startColdJoin()
	}
	return r
}

// AllocateCluster allocates the SWMR regions all replicas of cfg need on
// the given memory nodes. Call once before creating replicas.
func AllocateCluster(cfg Config, nodes []*memnode.Node) {
	for i := range cfg.Replicas {
		ctbcast.AllocateRegions(nodes, cfg.Replicas, cfg.Tail, cfg.regionBase(i))
	}
}

// Stop crash-stops the replica: its three processes (main, crypto pool,
// read core) crash, so every queued delivery, timer, background signature
// and queued read reply dies with them, and the fabric neither sends from
// nor delivers to it again (transport.Endpoint). It is the one teardown, for
// a bench's end as for a chaos kill, and permanent for this instance: a
// restart builds a fresh Replica with a new Config.JoinNonce.
func (r *Replica) Stop() {
	r.proc.Crash()
	r.bgProc.Crash()
	r.reads.core.Crash()
}

// View returns the replica's current view.
func (r *Replica) View() View { return r.view }

// IsLeader reports whether this replica leads its current view.
func (r *Replica) IsLeader() bool { return r.cfg.leaderOf(r.view) == r.cfg.Self }

// DecidedCount returns how many slots this replica knows to be decided:
// the decided slot records plus every slot below the stable checkpoint (an
// f+1-certified checkpoint at seq attests that all slots below seq were
// decided and applied, even after pruneBelow has deleted their records —
// or, after a state transfer, when this replica never held them at all).
func (r *Replica) DecidedCount() int {
	n := int(r.chkpt.Seq)
	for s, ss := range r.slots {
		if ss.decided && s >= r.chkpt.Seq {
			n++
		}
	}
	return n
}

// LastApplied returns the next slot to execute (all below are applied).
func (r *Replica) LastApplied() Slot { return r.lastApplied }

func (r *Replica) inWindow(s Slot) bool {
	return s >= r.chkpt.Seq && s < r.chkpt.Seq+Slot(r.cfg.Window)
}

func (r *Replica) inWindowOf(cp *Checkpoint, s Slot) bool {
	return s >= cp.Seq && s < cp.Seq+Slot(r.cfg.Window)
}

// ---------------------------------------------------------------------
// Proposal (leader side): Algorithm 2, Propose.
// ---------------------------------------------------------------------

// enqueueProposal queues a request for proposal by this replica when it
// leads, dropping duplicates.
func (r *Replica) enqueueProposal(req Request) {
	if rs := r.requests[r.digest(&req)]; rs != nil && rs.proposed {
		return
	}
	// A number at or below the client's highest proposed one is NOT grounds
	// for rejection: per-link FIFO makes echo completion order-preserving, so
	// the only way to get here out of order is a request that lost its echo
	// set (checkpoint prune, dropped echo) and completed via EchoTimeout
	// after its successors proposed. It is a fresh request — true
	// retransmissions were already stopped by the client table and the
	// held-copy check at arrival, and the digest dedup above catches
	// in-window re-proposals — so dropping it here would wedge its client
	// forever (clients do not retransmit). Propose it and count the
	// inversion. (Only client requests get here: a new leader's no-op fills
	// bypass the queue.)
	if r.clients[req.Client].proposedUpTo(req.Num, r.chkpt.Seq) {
		r.lateProposals++
	}
	r.proposeQ = append(r.proposeQ, req)
	r.pumpProposals()
}

// pumpProposals proposes queued requests while the window and leadership
// conditions of Algorithm 2 line 15 hold and no PREPARE of this leader's
// own is in flight. The gate is what batches (the §9 extension) without a
// timer or a size knob: an idle pipeline proposes a lone request at once,
// and everything whose echo round completes while that slot is undecided
// goes into the next PREPARE together, so the per-slot protocol work is
// shared exactly when the replicas are busy. Only fresh requests are gated:
// a new leader's re-proposals and no-op fills (startView) bypass the queue,
// and a view change, which makes the old PREPARE moot, opens the gate.
func (r *Replica) pumpProposals() {
	if r.observing() || !r.IsLeader() || r.isSealing() {
		return
	}
	if r.noLeadSet && r.view == r.noLeadView {
		return // just rejoined: don't lead the resume view (see rejoin.go)
	}
	if r.view > 0 && !r.viewOpened(r.view) {
		return // must broadcast NEW_VIEW before proposing (line 15)
	}
	for len(r.proposeQ) > 0 && !r.proposalInFlight() {
		// Never propose into a slot already known decided: a decision can
		// land while the view change that made this replica leader is still
		// collecting certificates, which then do not cover it, and a request
		// proposed there would count as proposed-and-decided forever.
		for r.isDecided(r.nextSlot) || r.nextSlot < r.lastApplied {
			r.nextSlot++
		}
		if !r.inWindow(r.nextSlot) {
			break
		}
		req, ok := r.takeProposal()
		if !ok {
			break
		}
		p := Prepare{View: r.view, Slot: r.nextSlot, Req: req}
		r.inFlight.view, r.inFlight.slot, r.inFlight.set = p.View, p.Slot, true
		r.nextSlot++
		r.broadcastPrepare(p)
	}
	r.armProgressTimer()
}

// pumpQueued is pumpProposals for the events that may open the gate; with
// nothing queued it does nothing at all.
func (r *Replica) pumpQueued() {
	if len(r.proposeQ) > 0 {
		r.pumpProposals()
	}
}

// proposalInFlight reports whether this leader's latest fresh-request
// PREPARE still awaits its decision in the current view while the fast path
// is live. A slot execution has passed counts as decided: a state transfer
// can cover it without this replica ever deciding it.
func (r *Replica) proposalInFlight() bool {
	f := &r.inFlight
	if !r.fastPathLive || !f.set || f.view != r.view || f.slot < r.lastApplied {
		return false
	}
	return !r.isDecided(f.slot)
}

// takeProposal pops the next proposal: the whole queue in FIFO order, packed
// into one batch container (§9 extension) as far as it fits the request cap
// — a container is a request like any other to every buffer sized by MsgCap
// (PREPARE and COMMIT frames, summaries, NEW_VIEW certificates). The first
// request always goes, alone and unwrapped if nothing else fits. Reports
// false when the queue held only already-proposed duplicates.
func (r *Replica) takeProposal() (Request, bool) {
	fresh := r.freshScratch[:0]
	size := 8 // the container's count prefix
	taken := 0
	for ; taken < len(r.proposeQ); taken++ {
		req := &r.proposeQ[taken]
		rs := r.request(r.digest(req))
		if rs.proposed {
			continue
		}
		if size += req.encodedBound(); len(fresh) > 0 && size > r.cfg.MsgCap {
			break
		}
		rs.proposed, rs.slot = true, r.nextSlot
		// Only raise: a late (out-of-order) proposal must not regress the
		// client's highest-proposed tracking.
		if c := r.clients.at(req.Client); !c.proposedUpTo(req.Num, r.chkpt.Seq) {
			c.proposedNum, c.proposedSlot, c.proposedAny = req.Num, r.nextSlot, true
		}
		fresh = append(fresh, *req)
	}
	// Keep what did not fit at the head of the same backing array.
	rest := copy(r.proposeQ, r.proposeQ[taken:])
	clear(r.proposeQ[rest:])
	r.proposeQ = r.proposeQ[:rest]
	r.freshScratch = fresh
	switch len(fresh) {
	case 0:
		return Request{}, false
	case 1:
		return fresh[0], true
	default:
		return encodeBatch(&r.batchSlab, fresh), true
	}
}

// ---------------------------------------------------------------------
// CTBcast delivery: consensus-level messages from broadcaster p, FIFO.
// ---------------------------------------------------------------------

// onConsensusMsg interprets broadcaster p's next FIFO message, once: it
// decodes the message, runs its tag's Byzantine check (Algorithm 5,
// viewchange.go) against state[p], and only then applies it. Reject proves p
// Byzantine, with nothing changed, and blocks its channel (Algorithm 2 line
// 1); it is the groups' Validate hook for that reason. A CHECKPOINT whose
// certificate the crypto pool is still checking gets Wait, and is judged
// again when the channel resumes (awaitCheckpointCert).
func (r *Replica) onConsensusMsg(p ids.ID, m []byte) ctbcast.Verdict {
	rd := wire.NewReader(m)
	st := r.state[p]
	switch rd.U8() {
	case tagPrepare:
		pr, err := DecodePrepare(m)
		if err != nil || !r.validPrepare(p, st, &pr) {
			return ctbcast.Reject
		}
		r.onPrepare(st, pr)
	case tagCommit:
		c, err := decodeCommitCert(rd)
		if err != nil || rd.Done() != nil || !r.validCommit(st, &c) {
			return ctbcast.Reject
		}
		r.onCommit(st, c)
	case tagCheckpoint:
		cp, err := decodeCheckpoint(rd)
		if err != nil || rd.Done() != nil || !cp.Supersedes(&st.checkpoint) {
			return ctbcast.Reject
		}
		if r.awaitCheckpointCert(st, &cp) {
			return ctbcast.Wait
		}
		if !r.verifyCheckpointCert(&cp) {
			return ctbcast.Reject
		}
		r.onCheckpointMsg(st, cp)
	case tagSealView:
		// Any well-formed view declaration is acceptable: a cold-rejoined
		// replica re-declares its current view as the first message of its
		// reborn channel, and different peers' frozen FIFO prefixes may
		// record different pre-crash views for it, so a strict v > st.view
		// check would brand a correct joiner Byzantine at some peers.
		// onSealView ignores non-advancing seals, so tolerance is free.
		v := View(rd.U64())
		if rd.Done() != nil {
			return ctbcast.Reject
		}
		r.onSealView(p, st, v)
	case tagNewView:
		nv, ok := r.readNewView(p, st, rd)
		if !ok {
			return ctbcast.Reject
		}
		r.onNewView(st, nv)
	case tagNewViewFrag:
		fr, err := decodeNewViewFrag(rd)
		if err != nil || rd.Done() != nil || !r.onNewViewFrag(p, st, fr) {
			return ctbcast.Reject
		}
	default:
		return ctbcast.Reject // unknown tag: Byzantine
	}
	return ctbcast.Accept
}

// onPrepare implements Algorithm 2 lines 18-22 (validPrepare passed).
func (r *Replica) onPrepare(st *replicaState, pr Prepare) {
	// Fingerprint before storing: the memoized digest travels with every
	// copy taken from the prepares map (endorsement, certify, commit),
	// so the request is encoded and hashed exactly once per replica.
	// A batch container's sub-requests (and their digests, as requestKnown
	// computes them), unpacked once by validPrepare, ride along the same way.
	r.digest(&pr.Req)
	st.prepares[pr.Slot] = pr
	st.newViewUsed = true
	if pr.View != r.view || !r.inWindow(pr.Slot) {
		return // line 20: stale or out-of-window for me (state[p] still updated)
	}
	r.endorseOrWait(pr)
}

// subs returns a batch container's sub-requests, decoding them on first use
// into the replica's own blocks (decodeBatch) and memoizing the result (and,
// through the shared backing array, every sub-request's digest) in the
// container. Nil for a malformed container: the verdict of a PREPARE's
// Byzantine check and the delivery's decode in one.
func (r *Replica) subs(req *Request) []Request {
	if req.subs == nil {
		req.subs, _ = decodeBatch(*req, &r.subsRest)
	}
	return req.subs
}

// requestKnown reports whether this replica holds the client's direct copy
// of req (for a batch container: of every sub-request).
func (r *Replica) requestKnown(req *Request) bool {
	if req.IsNoOp() {
		return true
	}
	if req.IsBatch() {
		subs := r.subs(req)
		for i := range subs {
			if !r.requestKnown(&subs[i]) {
				return false
			}
		}
		return subs != nil
	}
	if r.executed(req.Client, req.Num) {
		return true // already executed: provenance is settled
	}
	rs := r.requests[r.digest(req)]
	return rs != nil && rs.held
}

// endorseOrWait enforces §5.4: a replica endorses a PREPARE only once it
// has the client request directly (no-ops and view-change re-proposals are
// endorsed immediately; re-proposals carry f+1-certified provenance).
func (r *Replica) endorseOrWait(pr Prepare) {
	ss := r.slot(pr.Slot)
	if !r.requestKnown(&pr.Req) && pr.View == 0 && !r.noEchoWait {
		// Wait for the client's direct copy before endorsing. (A copy, so
		// that pr escapes to the heap on this rare path only.)
		parked := pr
		ss.waitingReq = &parked
		r.anyParked = true
		return
	}
	r.endorse(pr)
}

// releaseParked endorses the parked PREPAREs whose request copies have all
// arrived, in slot order so that endorsements are emitted identically every
// run. It runs on every client request and PREPAREs park rarely, so the walk
// over the slot table is skipped while anyParked says none can be there.
func (r *Replica) releaseParked() {
	if !r.anyParked {
		return
	}
	var parked []Slot
	for s, ss := range r.slots {
		if ss.waitingReq != nil {
			parked = append(parked, s)
		}
	}
	slices.Sort(parked)
	r.anyParked = false
	for _, s := range parked {
		switch ss := r.slots[s]; {
		case ss.waitingReq == nil:
		case r.requestKnown(&ss.waitingReq.Req):
			r.endorse(*ss.waitingReq)
		default:
			r.anyParked = true
		}
	}
}

func (r *Replica) endorse(pr Prepare) {
	ss := r.slot(pr.Slot)
	ss.waitingReq = nil
	if r.observing() {
		// Observe-only window: record the prepare (already in state[p]) but
		// cast no votes — a rejoined replica that forgot its pre-crash
		// promises must not be able to contradict them (amnesia
		// equivocation). It still decides passively via others' certs.
		return
	}
	if r.cfg.fastPath() {
		// Fast path: WILL_CERTIFY promise (line 21).
		if sv := ss.in(pr.View); sv.sent&sentWillCertify == 0 {
			sv.sent |= sentWillCertify
			r.auxVote(tagWillCertify, pr.View, pr.Slot)
		}
		if !ss.fallback.Pending() {
			ss.fallbackView = pr.View
			ss.fallback = r.proc.AfterH(r.cfg.SlowPathDelay, ss)
		}
	} else {
		// Slow path: CERTIFY immediately (line 22).
		r.sendCertify(pr.View, pr.Slot)
	}
	r.armProgressTimer()
}

// slowPathDue is a slot's fallback, SlowPathDelay after this replica endorsed
// its PREPARE on the fast path: the slot takes the signed path unless it
// decided meanwhile. A slot's record leaves its table only with the timer
// cancelled, so ss is the slot's record still.
func (r *Replica) slowPathDue(ss *slotState) {
	if !ss.decided && ss.slot >= r.chkpt.Seq {
		r.sendCertify(ss.fallbackView, ss.slot)
	}
}

// sendCertify signs and Tail-Broadcasts a CERTIFY share for the prepare we
// delivered for (v, s).
func (r *Replica) sendCertify(v View, s Slot) {
	ss := r.slot(s)
	if ss.sent(v, sentCertify) || r.observing() {
		return
	}
	pr, ok := r.state[r.cfg.leaderOf(v)].prepares[s]
	if !ok || pr.View != v {
		return
	}
	ss.in(v).sent |= sentCertify
	dg := r.digest(&pr.Req)
	r.proc.Charge(latmodel.DigestCost(len(pr.Req.Payload)))
	stmt := xcrypto.Certify(uint64(v), uint64(s), dg)
	sig := r.signer.Sign(r.proc, stmt.Bytes())
	w := wire.WriterOn(r.enc[:0])
	w.U8(tagCertify)
	w.U64(uint64(v))
	w.U64(uint64(s))
	w.Raw(dg[:])
	w.Bytes(sig)
	r.enc = w.Finish()
	r.auxBroadcast(r.enc)
	r.fastPathLive = false
	r.pumpQueued() // the gate just opened
}

// verifyCertifySig checks one CERTIFY signature of a COMMIT certificate,
// consulting the slot's shares first. A share verified here joins them (it
// counts toward this replica's own COMMIT like one that arrived in a
// CERTIFY), unless its signer certified another digest before: the signature
// is valid all the same. A share about a slot below the stable checkpoint
// opens no slot record (admits): it joins the record the slot still has
// (decided, not yet applied) or else Replica.settled. A share beyond the
// horizon is verified and forgotten.
func (r *Replica) verifyCertifySig(v View, s Slot, dg [xcrypto.DigestLen]byte, p ids.ID, sig xcrypto.Signature) bool {
	stmt := xcrypto.Certify(uint64(v), uint64(s), dg)
	var shares *digestShares
	switch ss := r.slots[s]; {
	case r.admits(commitShare, v, s):
		shares = &r.slot(s).in(v).shares
	case s >= r.chkpt.Seq || v > r.highestView()+1:
	case ss != nil:
		shares = &ss.in(v).shares
	default:
		shares = r.settledShares(v, s)
	}
	if shares == nil {
		return r.signer.Verify(r.proc, p, stmt.Bytes(), sig)
	}
	if shares.Has(p, dg, sig) {
		return true
	}
	if !r.signer.Verify(r.proc, p, stmt.Bytes(), sig) {
		return false
	}
	r.addShare(shares, p, dg, sig)
	return true
}

// auxBroadcast fans m out on the auxiliary channel; m is not retained.
func (r *Replica) auxBroadcast(m []byte) { r.auxOut.Broadcast(m) }

// broadcastPrepare puts p on this leader's own channel.
func (r *Replica) broadcastPrepare(p Prepare) {
	w := wire.WriterOn(r.enc[:0])
	appendPrepare(&w, p)
	r.enc = w.Finish()
	r.groups[r.cfg.Self].Broadcast(r.enc)
}

// digest is req.Digest() through the replica's encode buffer.
func (r *Replica) digest(req *Request) [xcrypto.DigestLen]byte { return req.digestWith(&r.enc) }

// auxVote broadcasts a WILL_CERTIFY / WILL_COMMIT frame.
func (r *Replica) auxVote(tag uint8, v View, s Slot) {
	w := wire.WriterOn(r.enc[:0])
	w.U8(tag)
	w.U64(uint64(v))
	w.U64(uint64(s))
	r.enc = w.Finish()
	r.auxBroadcast(r.enc)
}

// ---------------------------------------------------------------------
// Auxiliary channel: CERTIFY, WILL_*, CERTIFY_CHECKPOINT.
// ---------------------------------------------------------------------

// onAuxMsg decodes an auxiliary message in borrow mode: a CERTIFY or
// CERTIFY_CHECKPOINT signature is a view of m, a delivered ring frame (or
// its self-delivery), which is immutable once sent and never recycled, so
// the share sets keep the view as they find it.
func (r *Replica) onAuxMsg(p ids.ID, m []byte) {
	rd := wire.NewReader(m)
	switch rd.U8() {
	case tagWillCertify:
		v, s := View(rd.U64()), Slot(rd.U64())
		if rd.Done() == nil {
			r.onWillCertify(p, v, s)
		}
	case tagWillCommit:
		v, s := View(rd.U64()), Slot(rd.U64())
		if rd.Done() == nil {
			r.onWillCommit(p, v, s)
		}
	case tagCertify:
		v, s := View(rd.U64()), Slot(rd.U64())
		var dg [xcrypto.DigestLen]byte
		copy(dg[:], rd.RawView(xcrypto.DigestLen))
		sig := rd.BytesView()
		if rd.Done() == nil {
			r.onCertify(p, v, s, dg, sig)
		}
	case tagCertifyCP:
		seq := Slot(rd.U64())
		var dg [xcrypto.DigestLen]byte
		copy(dg[:], rd.RawView(xcrypto.DigestLen))
		sig := rd.BytesView()
		if rd.Done() == nil {
			r.onCertifyCheckpoint(p, seq, dg, sig)
		}
	}
}

// voteBit returns p's bit in a vote mask, or 0 for non-replicas.
func (r *Replica) voteBit(p ids.ID) uint64 {
	idx := r.cfg.indexOf(p)
	if idx < 0 {
		return 0
	}
	return 1 << uint(idx)
}

// fullVote is the mask with every replica's bit set.
func (r *Replica) fullVote() uint64 { return (1 << uint(r.cfg.n())) - 1 }

// voteSlot returns the view record p's fast-path vote for (v, s) counts in,
// and p's bit in its vote sets; nil for a vote that does not count (another
// view than ours, a slot outside the window, a stranger).
func (r *Replica) voteSlot(p ids.ID, v View, s Slot) (*slotView, uint64) {
	bit := r.voteBit(p)
	if v != r.view || !r.inWindow(s) || bit == 0 {
		return nil, 0
	}
	return r.slot(s).in(v), bit
}

// onWillCertify implements lines 25-27: unanimity over WILL_CERTIFY lets
// the replica promise WILL_COMMIT.
func (r *Replica) onWillCertify(p ids.ID, v View, s Slot) {
	sv, bit := r.voteSlot(p, v, s)
	if sv == nil {
		return
	}
	sv.willCertify |= bit
	if r.observing() {
		return // no WILL_COMMIT promises during the observe-only window
	}
	if sv.willCertify == r.fullVote() && sv.sent&sentWillCommit == 0 {
		// From here until this view's COMMIT for the slot goes out the
		// promise is outstanding (slotState.owesCommit holds maybeSeal back).
		sv.sent |= sentWillCommit
		r.auxVote(tagWillCommit, v, s)
	}
}

// onWillCommit implements lines 29-31: unanimity decides on the fast path.
func (r *Replica) onWillCommit(p ids.ID, v View, s Slot) {
	sv, bit := r.voteSlot(p, v, s)
	if sv == nil {
		return
	}
	sv.willCommit |= bit
	if sv.willCommit == r.fullVote() {
		pr, ok := r.state[r.cfg.leaderOf(v)].prepares[s]
		if !ok || pr.View != v {
			return
		}
		r.FastDecides++
		r.fastPathLive = true
		r.decide(s, v, pr.Req)
	}
}

// onCertify implements lines 34-36: f+1 matching CERTIFY shares make PΣ,
// which is then CTBcast in a COMMIT.
func (r *Replica) onCertify(p ids.ID, v View, s Slot, dg [xcrypto.DigestLen]byte, sig xcrypto.Signature) {
	if !r.admits(certifyShare, v, s) {
		return
	}
	// A signer gets one share per view: a second digest from it is refused
	// before it costs a verification. Our own share needs none; remote shares
	// are verified once and kept, so COMMIT-certificate validation does not
	// re-pay.
	sv, stmt := r.slot(s).in(v), xcrypto.Certify(uint64(v), uint64(s), dg)
	if !sv.shares.Admits(p, dg) || (p != r.cfg.Self && !r.signer.Verify(r.proc, p, stmt.Bytes(), sig)) {
		return
	}
	if r.addShare(&sv.shares, p, dg, sig) < r.cfg.f()+1 || sv.sent&sentCommit != 0 || r.observing() {
		return // observing: collect shares but broadcast no COMMIT
	}
	pr, ok := r.state[r.cfg.leaderOf(v)].prepares[s]
	if !ok || pr.View != v || r.digest(&pr.Req) != dg {
		return
	}
	sv.sent |= sentCommit
	w := wire.WriterOn(r.enc[:0])
	w.U8(tagCommit)
	appendCommitHead(&w, v, s, pr.Req)
	sv.shares.AppendCert(&w, dg)
	r.enc = w.Finish()
	r.groups[r.cfg.Self].Broadcast(r.enc)
	r.maybeSeal()
}

// onCommit implements lines 38-41 (validCommit verified the certificate, or
// a certified summary carried it).
func (r *Replica) onCommit(st *replicaState, c CommitCert) {
	// Fingerprint before storing so the stored COMMIT carries the cache (the
	// matching scan below re-reads every replica's latest COMMIT).
	dg := r.digest(&c.Req)
	st.commits.put(c)
	if c.View == st.view {
		// A COMMIT of an earlier view can trail p's SEAL_VIEW (the shares
		// p asked for while sealing arrive when they arrive); it does not
		// open the view, so p's NEW_VIEW may still follow it.
		st.newViewUsed = true
	}
	if !r.inWindow(c.Slot) {
		return
	}
	// Count distinct broadcasters whose latest COMMIT carries this request.
	matching := 0
	for _, q := range r.cfg.Replicas {
		if qc := r.state[q].commits.at(c.Slot); qc != nil && r.digest(&qc.Req) == dg {
			matching++
		}
	}
	if matching >= r.cfg.f()+1 {
		r.SlowDecides++
		r.decide(c.Slot, c.View, c.Req)
	}
}

// ---------------------------------------------------------------------
// Decide and execute.
// ---------------------------------------------------------------------

// decide records req as slot s's decision, reached in view v.
func (r *Replica) decide(s Slot, v View, req Request) {
	if r.isDecided(s) || s < r.lastApplied {
		return
	}
	ss := r.slot(s)
	ss.decided, ss.req = true, req
	if r.onDecided != nil {
		r.onDecided(r.cfg.Self, s, v, &ss.req)
	}
	ss.fallback.Cancel()
	r.vcStreak = 0 // progress: reset the suspicion backoff
	r.resetProgressTimer()
	// This may be the decision the proposal gate waits for. Propose before
	// executing: nothing can join the queue while this handler runs, and
	// the PREPARE leaves ahead of the execution's CPU time.
	r.pumpQueued()
	r.executeReady()
}

// executeReady applies decided requests strictly in slot order.
func (r *Replica) executeReady() {
	for {
		s := r.lastApplied
		if !r.isDecided(s) {
			break
		}
		req := &r.slots[s].req
		r.lastApplied++
		switch {
		case req.IsBatch():
			subs := r.subs(req)
			for i := range subs {
				r.applyOne(&subs[i], s)
			}
		case !req.IsNoOp():
			r.applyOne(req, s)
		}
		r.maybeCreateCheckpoint()
	}
	r.drainPinnedReads()
	r.armProgressTimer()
}

// applyOne executes a single client request decided in slot s with
// exactly-once semantics and responds to the client. The main process is
// charged the dispatch (AppExecBase) of every command and the execution
// (ExecCost) of every write. A read (the application's ReadOnly) executes
// here too, at its slot, but until this replica serves its first fast read
// its execution and its reply's post are charged to the read core, from when
// the main process has dispatched it, and the read core posts the reply once
// it has spent them
// (readLanes): a group without fast reads has an idle read core and a main
// process busy with application work. A read that parks, a read behind a
// full read-core backlog and every read of a replica serving fast reads are
// charged here as writes are: in a fast-read group a choice by each read
// core's own load parts the replicas' replies (servesFastReads). On a
// realtime host no core is charged, so only the reply's hand-off differs.
func (r *Replica) applyOne(req *Request, s Slot) {
	if c := r.executedBy(req.Client, req.Num); c != nil {
		// A re-proposed duplicate: exactly-once execution does not apply it
		// twice. The latest request's result is cached and re-sent (not a
		// parked one's: it does not exist before the lock releases); an
		// older request was answered when it executed.
		if c.num == req.Num && !c.pending {
			r.respond(req.Client, req.Num, s, c.res, c.parked)
		}
		return
	}
	// A number below the client's highest that did not execute is NOT a duplicate: a
	// pipelined request that lost its echo round proposes via EchoTimeout
	// and reaches execution after its successors. Returning early would
	// swallow it and wedge its client; apply it and mark it in the window.
	if r.onExecuted != nil {
		r.onExecuted(r.cfg.Self, req.Client, req.Num, s)
	}
	if r.appVer != nil {
		// The command decided in slot s produces state version s+1 (the
		// numbering the read floors and frontiers speak): stamp its writes.
		r.appVer.BeginSlot(uint64(s) + 1)
	}
	cost := r.cfg.App.ExecCost(req.Payload)
	onReadCore := !r.servesFastReads && r.appReads != nil && r.reads.onCore.len() < readBacklogCap &&
		r.appReads.ReadOnly(req.Payload)
	if onReadCore {
		r.proc.Charge(latmodel.AppExecBase)
	} else {
		r.proc.Charge(cost + latmodel.AppExecBase)
	}
	result := r.cfg.App.Apply(req.Payload)
	r.Executed++
	if rs := r.requests[r.digest(req)]; rs != nil {
		rs.releaseBody()
		r.dropIfDead(r.digest(req), rs)
	}
	c := r.clients.at(req.Client)
	if result == nil {
		// A Deferring application may have parked the request on a
		// transaction lock: record who is owed the response and deliver
		// it when the lock releases (drainReleased).
		if d, ok := r.cfg.App.(app.Deferring); ok {
			if tk := d.TakeParkedTicket(); tk != 0 {
				if onReadCore {
					r.proc.Charge(cost)
				}
				c.markExecuted(req.Num, s, nil, true)
				if c.num == req.Num {
					c.ticket = tk
				}
				r.deferredResp[tk] = deferredTarget{client: req.Client, num: req.Num, slot: s}
				return
			}
		}
	}
	c.markExecuted(req.Num, s, result, false)
	if onReadCore {
		r.reads.toCore(readReply{to: req.Client, frame: responseFrame(req.Num, s, result, false), cost: cost + latmodel.DispatchCost}, r.proc.BusyUntil())
	} else {
		r.respond(req.Client, req.Num, s, result, false)
	}
	r.drainReleased(s)
}

// drainReleased delivers the results of wait-queue requests the app
// completed during the last Apply (a commit/abort released their lock). A
// ticket without a deferred target belongs to a request parked before a
// state transfer — this replica never saw it, and the f+1 replicas that
// did will respond.
func (r *Replica) drainReleased(s Slot) {
	d, ok := r.cfg.App.(app.Deferring)
	if !ok {
		return
	}
	for _, rel := range d.TakeReleased() {
		// The parked request executed inside the releasing command's Apply;
		// charge its ExecCost now so the proc model stays honest (it used
		// to run "free"). The charge lands after the releasing command's
		// own response but before the parked responses below, so a released
		// request's latency includes its own execution.
		cost := r.cfg.App.ExecCost(rel.Req) + latmodel.AppExecBase
		r.proc.Charge(cost)
		r.DeferredCharged += cost
		tgt, known := r.deferredResp[rel.Ticket]
		if !known {
			continue
		}
		delete(r.deferredResp, rel.Ticket)
		if c := r.clients[tgt.client]; c != nil && c.ran && c.num == tgt.num {
			c.res, c.slot, c.pending, c.parked = append(c.res[:0], rel.Result...), s, false, true
		}
		r.respond(tgt.client, tgt.num, s, rel.Result, true)
	}
}
