// Package scenario is the seeded Byzantine scenario harness: it assembles
// a two-shard deployment on a simulated fabric, runs one adversarial
// policy against one application in one read mode, and machine-checks the
// safety invariants the paper's f=1 bound promises — agreement across
// correct replicas, read-your-writes, monotonic reads, an uninflatable
// read floor, no torn cross-shard state, exactly-once execution, and
// bounded-time completion. Every run is a pure function of its seed
// (virtual-time simulation, deterministic policies), so a failing cell
// replays exactly.
//
// The same harness runs the defense-off trip scenarios: with CTBcast's
// LOCKED unanimity or the client's f+1 matching rule switched off
// (consensus.Defenses), or more than f replicas infected, the SAME
// invariant checker must report violations — proving the checker can
// actually see the attacks the defenses stop.
package scenario

import (
	"strconv"

	"repro/internal/app"
	"repro/internal/byz"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/outcome"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Policy names the adversarial behaviour of the infected replica(s).
const (
	Honest       = "honest"
	Silence      = "silence"
	Equivocate   = "equivocate"
	ForgeReads   = "forgereads"
	CorruptVotes = "corruptvotes"
	// BadBatch is not on the Policies axis: a leader can only abuse batching
	// when requests queue, so it runs as one extra cell at Depth 4.
	BadBatch = "badbatch"
)

// Read mode names: how the workload's reads travel.
const (
	ReadFast     = "fast"     // unordered f+1 quorum reads
	ReadSnapshot = "snapshot" // pinned snapshot scatter reads across shards
	ReadStrong   = "strong"   // linearizable 2f+1 strong reads
)

// Policies, Apps and ReadModes enumerate the matrix axes.
func Policies() []string { return []string{Honest, Silence, Equivocate, ForgeReads, CorruptVotes} }
func Apps() []string     { return []string{"kv", "rkv", "orderbook"} }
func ReadModes() []string {
	return []string{ReadFast, ReadSnapshot, ReadStrong}
}

// Config selects one cell of the scenario matrix, plus the defense-off
// knobs the trip tests flip.
type Config struct {
	Seed     int64
	App      string // "kv" | "rkv" | "orderbook"
	ReadMode string // ReadFast | ReadSnapshot | ReadStrong
	Policy   string // Honest | Silence | Equivocate | ForgeReads | CorruptVotes
	Rounds   int    // workload rounds (default 4)
	// Depth is how many single-key writes (of as many keys) a round keeps
	// in flight at once (default 1). Above 1 they queue behind one another
	// at the leader and share consensus slots, which is where a batching
	// leader can misbehave.
	Depth int

	// Defenses switched off — trip tests only. Each disables exactly the
	// mechanism that bounds one attack at f=1. The equivocation trip needs
	// FirstLockDelivers AND NoEchoWait: the forged payload's digest matches
	// no echoed request, so with the echo rule on followers refuse to vote
	// for the divergent prepare and the view change rescues the run even
	// with unanimity disabled — the two defenses independently bound the
	// attack.
	Defenses consensus.Defenses
	// BeyondF infects a second replica of the target group with the same
	// policy — deliberately exceeding f, the bound the paper's quorum
	// arithmetic assumes — so an invariant must trip with every defense on.
	BeyondF bool
}

// Report is the machine-checked outcome of one scenario run.
type Report struct {
	Violations []string
	// Verdict is the run's outcome: the worst kind of violation raised and
	// the first violation of that kind (a pass when there is none). Each
	// violation's kind is set where it is raised.
	Verdict outcome.Verdict
	Ops     int // operations issued
	Commits int // cross-shard transactions committed
	// How the client's unordered reads resolved (shard.Client.ReadStats and
	// ReadWidens at the end of the run).
	FastReads, ReadWidens, ReadFallbacks uint64
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) violate(k outcome.Kind, format string, args ...any) {
	v := k.Because(format, args...)
	r.Violations = append(r.Violations, v.Note)
	if k > r.Verdict.Kind {
		r.Verdict = v
	}
}

// Deployment geometry: 2 shards of 3 replicas (f=1) sharing one memory
// pool, one client. The infected replica is replica 0 of the shard the
// attack targets (group 0 for consensus/read attacks, group 1 — a 2PC
// participant that is not the coordinator — for vote corruption).
const (
	nShards       = 2
	byzReplica    = ids.ID(0)   // replica 0 of group 0 (leader of view 0)
	byzVoter      = ids.ID(100) // replica 0 of group 1
	clientID      = ids.ID(200_000)
	perOpDeadline = 20 * sim.Millisecond // virtual-time completion bound per op
)

// newFabric builds one run's harness fabric: a deterministic simnet whose
// infected replicas run cfg's policy as their outbound rewrite.
func newFabric(cfg Config) simnet.Fabric {
	net := simnet.New(sim.NewEngine(cfg.Seed), simnet.RDMAOptions())
	target := byzReplica
	if cfg.Policy == CorruptVotes {
		target = byzVoter
	}
	if p := newPolicy(cfg); p != nil {
		byz.Infect(net, target, p)
		if cfg.BeyondF {
			byz.Infect(net, target+1, newPolicy(cfg))
		}
	}
	return simnet.AsFabric(net)
}

// newPolicy returns a fresh instance of cfg's adversarial policy, nil for an
// honest run.
func newPolicy(cfg Config) byz.Policy {
	switch cfg.Policy {
	case Silence:
		return byz.SilenceOf(clientID)
	case Equivocate:
		return byz.Equivocate{}
	case ForgeReads:
		return byz.ForgeReads{}
	case BadBatch:
		return byz.BadBatch{Shift: int(cfg.Seed), N: 3, Index: 0}
	case CorruptVotes:
		return &byz.CorruptVotes{}
	}
	return nil
}

// Run executes one scenario cell and returns its invariant report.
func Run(cfg Config) *Report {
	rep := &Report{}
	ad, ok := adapters()[cfg.App]
	if !ok {
		rep.violate(outcome.Violated, "unknown app %q", cfg.App)
		return rep
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 4
	}
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}

	d, err := shard.BuildWithDefenses(shard.Options{
		Seed:        cfg.Seed,
		Shards:      nShards,
		NewApp:      ad.newApp,
		FastReads:   cfg.ReadMode == ReadFast || cfg.ReadMode == ReadSnapshot || cfg.ReadMode == ReadStrong,
		StrongReads: cfg.ReadMode == ReadStrong,
		// View changes are the liveness half of the equivocation defense:
		// CTBcast's unanimity rule wedges an equivocating leader's own
		// channel (a follower that locked one variant refuses the SIGNED
		// other, Algorithm 1 line 28), and the view change then replaces that
		// leader so the pending requests re-propose under an honest one.
		Group: cluster.Options{Fabric: newFabric(cfg)},
	}, cfg.Defenses)
	if err != nil {
		rep.violate(outcome.Violated, "build: %v", err)
		return rep
	}
	defer d.Stop()

	h := &harness{cfg: cfg, ad: ad, d: d, rep: rep}
	h.judged(func() { h.workload(); h.settle() })
	rep.FastReads, rep.ReadFallbacks = d.Client(0).ReadStats()
	rep.ReadWidens = d.Client(0).ReadWidens()
	return rep
}

// harness drives one run's workload and invariant state.
type harness struct {
	cfg Config
	ad  appAdapter
	d   *shard.Deployment
	rep *Report

	modelA    int // last acknowledged counter of the single-key probe
	modelPair int // last committed counter of the atomic pair
	lastReadA int // monotonic-read watermark
}

// do submits one request and runs virtual time until it completes or the
// budget expires. ok=false means the op never finished (completion
// violation recorded by the caller with context).
func (h *harness) do(payload []byte) ([]byte, bool) {
	res, ok := h.doAll([][]byte{payload})
	return res[0], ok
}

// doAll submits the requests back to back, so that all are in flight at
// once, and runs virtual time until every one completed or the budget
// expires (ok=false).
func (h *harness) doAll(payloads [][]byte) ([][]byte, bool) {
	res := make([][]byte, len(payloads))
	fired := 0
	for i, p := range payloads {
		if _, err := h.d.Client(0).Invoke(p, func(r []byte, _ sim.Duration) { res[i] = r; fired++ }); err != nil {
			h.rep.violate(outcome.Violated, "invoke error: %v", err)
			return res, false
		}
		h.rep.Ops++
	}
	err := cluster.SyncWait(h.d.Eng, perOpDeadline, func() bool { return fired == len(payloads) })
	return res, err == nil
}

// workload runs Rounds of: single-key write, single-key read (RYW +
// monotonicity), atomic cross-shard pair write, cross-shard pair read
// (torn check + RYW), and the read-floor sanity check.
func (h *harness) workload() {
	for i := 1; i <= h.cfg.Rounds; i++ {
		h.round(i)
	}
}

// round runs one workload round; i numbers rounds from 1 monotonically
// across the whole run (the chaos harness interleaves rounds with
// kill/restart events, so the counter lives at the caller).
func (h *harness) round(i int) {
	a := keyOn(0, "a")
	p := keyOn(0, "p")
	q := keyOn(1, "q")
	// Single-key writes on the attacked group: the probe key and, at Depth
	// above 1, that many more keys written at the same time (a view change
	// may reorder one client's concurrent requests, so they do not share a
	// key).
	writes := [][]byte{h.ad.write1(a, i)}
	for j := 1; j < h.cfg.Depth; j++ {
		writes = append(writes, h.ad.write1(keyOn(0, "a"+strconv.Itoa(j)), i))
	}
	if res, done := h.doAll(writes); !done {
		h.rep.violate(outcome.Wedged, "round %d: single-key write never completed", i)
	} else {
		h.modelA = i
		for _, r := range res {
			if !h.ad.wrote1OK(r) {
				h.rep.violate(outcome.Violated, "round %d: single-key write acknowledged %v", i, r)
			}
		}
	}
	// Read it back: read-your-writes and monotonicity.
	if res, done := h.do(h.ad.read1(a)); !done {
		h.rep.violate(outcome.Wedged, "round %d: single-key read never completed", i)
	} else if c, present, ok := h.ad.val1(res); !ok {
		h.rep.violate(outcome.Violated, "round %d: unparseable read response %v", i, res)
	} else if !present || c != h.modelA {
		h.rep.violate(outcome.Violated, "round %d: read-your-writes broken: read counter %d (present=%v), wrote %d", i, c, present, h.modelA)
	} else {
		if c < h.lastReadA {
			h.rep.violate(outcome.Violated, "round %d: monotonic reads broken: %d after %d", i, c, h.lastReadA)
		}
		h.lastReadA = c
	}
	for j := 1; j < h.cfg.Depth; j++ {
		if res, done := h.do(h.ad.read1(keyOn(0, "a"+strconv.Itoa(j)))); !done {
			h.rep.violate(outcome.Wedged, "round %d: read of concurrent key %d never completed", i, j)
		} else if c, present, ok := h.ad.val1(res); !ok || !present || c != h.modelA {
			h.rep.violate(outcome.Violated, "round %d: concurrent key %d reads %d (present=%v ok=%v), wrote %d", i, j, c, present, ok, h.modelA)
		}
	}
	// Atomic cross-shard pair write (2PC through the infected fabric).
	if res, done := h.do(h.ad.pairWrite(p, q, i)); !done {
		h.rep.violate(outcome.Wedged, "round %d: pair write never completed", i)
	} else if !h.ad.commitOK(res) {
		h.rep.violate(outcome.Violated, "round %d: pair write did not commit: %v", i, res)
	} else {
		h.modelPair = i
		h.rep.Commits++
	}
	// Cross-shard read of the pair: never torn, reflects the commit.
	if res, done := h.do(h.ad.readPair(p, q)); !done {
		h.rep.violate(outcome.Wedged, "round %d: pair read never completed", i)
	} else if c1, c2, ok := h.ad.valPair(res); !ok {
		h.rep.violate(outcome.Violated, "round %d: unparseable pair read %v", i, res)
	} else {
		if c1 != c2 {
			h.rep.violate(outcome.Violated, "round %d: torn cross-shard state: %d vs %d", i, c1, c2)
		}
		if h.modelPair > 0 && c1 != h.modelPair {
			h.rep.violate(outcome.Violated, "round %d: pair read counter %d, committed %d", i, c1, h.modelPair)
		}
	}
	h.checkFloor(i)
}

// checkFloor asserts the client's monotonic read floor stays anchored to
// real execution: a forged reply claiming version 2^40 must never ratchet
// it past what the group actually decided (small slack for the +1 floor
// semantics and in-flight decisions).
func (h *harness) checkFloor(round int) {
	for g, grp := range h.d.Groups {
		floor := h.d.Client(0).ReadFloor(g)
		if int(floor) > grp.DecidedCount()+4 {
			h.rep.violate(outcome.Violated, "round %d: group %d read floor %d inflated past decided %d",
				round, g, floor, grp.DecidedCount())
		}
	}
}

// judged runs body under the deployment's agreement oracle, which checks
// every decision of a correct replica as it is made: a conflict is a
// divergence and ends the run.
func (h *harness) judged(body func()) {
	if d := cluster.Diverged(body); d != nil {
		h.rep.violate(outcome.Diverged, "%v", d)
	}
}

// settle lets in-flight traffic drain, then compares the final states of the
// correct replicas at equal progress.
func (h *harness) settle() {
	h.d.Eng.RunFor(4 * sim.Millisecond)
	if err := h.d.CheckAgreement(); err != nil {
		h.rep.violate(outcome.Diverged, "%v", err)
	}
}

// keyOn returns a probe key (prefix plus a counter) hashing onto shard s.
func keyOn(s int, prefix string) []byte {
	for n := 0; ; n++ {
		k := []byte(prefix + "-" + strconv.Itoa(n))
		if app.ShardOfKey(k, nShards) == s {
			return k
		}
	}
}

// Guard against silent wire-format drift: the byz policies parse consensus
// frames from raw bytes. consensus keeps exporting the request codec the
// Equivocate policy's mutation target round-trips through.
var _ = consensus.EncodeRequest
