// Package ubft is the public façade of this reproduction of "uBFT:
// Microsecond-Scale BFT using Disaggregated Memory" (ASPLOS 2023).
//
// It re-exports the pieces a downstream user needs:
//
//   - New / Options: assemble a complete uBFT cluster (2f+1 replicas,
//     2f_m+1 memory nodes, clients) on the deterministic simulated fabric.
//   - State machines: Flip, the Memcached-like KV, the Redis-like RKV and
//     the Liquibook-like OrderBook, plus the StateMachine interface for
//     custom applications and the capability interfaces (Router,
//     Fragmenter, TxnParticipant, LockTable) that give any application
//     sharding and cross-shard transactions.
//   - Baselines: Unreplicated, Mu and MinBFT deployments for comparison.
//
// Quickstart:
//
//	u := ubft.New(ubft.Options{})
//	res, lat, err := u.InvokeSync(0, []byte("hello"), 10*ubft.Millisecond)
//	if err != nil { // ubft.ErrTimeout or ubft.ErrStalled
//		return err
//	}
//	fmt.Printf("%q in %v\n", res, lat)
//
// See docs/ARCHITECTURE.md for the system inventory and README.md for how
// to regenerate every table and figure of the paper.
package ubft

import (
	"repro/internal/app"
	"repro/internal/baselines/minbft"
	"repro/internal/cluster"
	"repro/internal/ctbcast"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Re-exported core types.
type (
	// Options configures a uBFT cluster (zero values take the paper's
	// defaults: f=1, f_m=1, window 256, tail 128; a 1ms fast-to-slow
	// fallback, and a ViewChangeTimeout of 0 takes 2ms — every deployment
	// suspects a leader that stops deciding).
	Options = cluster.Options
	// Cluster is an assembled uBFT deployment.
	Cluster = cluster.UBFT
	// StateMachine is the replicated-application interface.
	StateMachine = app.StateMachine
	// Duration is a span of virtual time (nanoseconds).
	Duration = sim.Duration
	// Time is a point in virtual time.
	Time = sim.Time
)

// Convenient virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// CTBcast path modes (for Options.CTBMode).
const (
	FastWithFallback = ctbcast.FastWithFallback
	FastOnly         = ctbcast.FastOnly
	SlowOnly         = ctbcast.SlowOnly
)

// MinBFT client-authentication variants.
const (
	MinBFTVanilla = minbft.Vanilla
	MinBFTHMAC    = minbft.HMACClients
)

// Sharded-deployment types (horizontal scaling: S consensus groups on one
// fabric sharing the memory-node pool, key space hash-partitioned).
type (
	// ShardOptions configures an S-shard deployment.
	ShardOptions = shard.Options
	// ShardDeployment is an assembled multi-group fabric.
	ShardDeployment = shard.Deployment
)

// InvokeSync failure outcomes: every synchronous driver (Cluster,
// ShardDeployment and the three baselines) reports failure as one of these
// errors, or a shard routing error, with a nil result.
var (
	ErrTimeout = cluster.ErrTimeout
	ErrStalled = cluster.ErrStalled
)

// SyncWait steps a deployment's engine until done reports true, returning
// ErrTimeout once maxWait of virtual time passes first and ErrStalled if the
// engine runs out of events: InvokeSync for a caller that keeps several
// requests in flight with Client(i).Invoke.
var SyncWait = cluster.SyncWait

// New assembles a uBFT cluster.
func New(opts Options) *Cluster { return cluster.NewUBFT(opts) }

// NewSharded assembles an S-shard uBFT deployment: independent consensus
// groups with disjoint key partitions sharing one memory-node pool.
func NewSharded(opts ShardOptions) *ShardDeployment { return shard.New(opts) }

// Application capability interfaces (layered on StateMachine). A state
// machine implementing Router can be sharded; adding Fragmenter enables
// scatter-gather reads across shards; adding TxnParticipant (typically by
// embedding a LockTable) enables atomic cross-shard multi-key writes.
type (
	// Router exposes the keys a request touches (generic hash routing).
	Router = app.Router
	// Fragmenter splits multi-key requests into per-shard fragments and
	// merges per-leg read responses.
	Fragmenter = app.Fragmenter
	// TxnParticipant provides the 2PC hooks for cross-shard writes.
	TxnParticipant = app.TxnParticipant
	// LockTable is the reusable 2PC participant component (locks, staged
	// fragments, tombstones, FIFO wait queue) custom applications embed.
	LockTable = app.LockTable
)

// NewLockTable builds a LockTable for a custom application; see
// app.NewLockTable for the callback contracts (install may return a commit
// receipt that travels back in the cross-shard transaction response).
func NewLockTable(keysOf func([]byte) ([][]byte, error), install func([]byte) []byte, exec func([]byte) []byte) *LockTable {
	return app.NewLockTable(keysOf, install, exec)
}

// Route maps a request to the shard owning its keys via the application's
// Router capability. It fails with ErrCrossShard when the keys span shards
// (the shard-aware client executes such requests across groups when the
// application also implements Fragmenter/TxnParticipant).
func Route(a StateMachine, payload []byte, shards int) (int, error) {
	return shard.Route(a, payload, shards)
}

// ErrCrossShard reports a cross-shard request with no fan-out path.
var ErrCrossShard = shard.ErrCrossShard

// MultiShard is the shard index reported for requests executed across
// several consensus groups.
const MultiShard = shard.MultiShard

// NewUnreplicated assembles the unreplicated baseline.
func NewUnreplicated(seed int64, newApp func() StateMachine) *cluster.Unrepl {
	return cluster.NewUnrepl(seed, newApp)
}

// NewMu assembles the Mu (crash-fault-tolerant) baseline.
func NewMu(opts cluster.MuOptions) *cluster.Mu { return cluster.NewMu(opts) }

// NewMinBFT assembles the MinBFT (SGX trusted-counter) baseline.
func NewMinBFT(opts cluster.MinBFTOptions) *cluster.MinBFT { return cluster.NewMinBFT(opts) }

// Application constructors.

// NewFlip returns the toy echo-reverser application.
func NewFlip() StateMachine { return app.NewFlip() }

// NewKV returns the Memcached-like key-value store (maxItems 0 =
// unbounded).
func NewKV(maxItems int) *app.KV { return app.NewKV(maxItems) }

// NewRKV returns the Redis-like key-value store.
func NewRKV() *app.RKV { return app.NewRKV() }

// NewOrderBook returns the Liquibook-like order matching engine.
func NewOrderBook() *app.OrderBook { return app.NewOrderBook() }
