package main

// This file is the benchmark's vocabulary: the workload names, the
// end-to-end metric names with their units and regression bounds, and the
// per-layer metric names. BENCHMARK.json at the repository root repeats the
// gated workloads, endToEnd and perLayer exactly (bench_test.go fails when
// they drift apart), so a later PR is judged on names that cannot move
// silently.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
	// Net: real sockets and the wall clock instead of the simulated fabric.
	// Such a workload is a diagnostic: it runs with the others, is printed
	// and kept in the ledger, but BENCHMARK.json does not list it, because
	// on a shared host its wall-clock latency and throughput spread wider
	// from run to run than any bound the driver accepts (see README.md).
	Net bool
}

var workloads = []workloadSpec{
	{Name: "sim-flip-fast", Why: "1 client x depth 1, 64 B Flip on the simulated fabric: the fast path with zero crypto and zero app work, so per-message protocol cost is all there is"},
	{Name: "sim-flip-slow", Why: "same stream pinned to the signed slow path: xcrypto, swmr and memnode do most of the work here and none in sim-flip-fast"},
	{Name: "sim-kv-read90", Why: "2 shards, fast reads on, 2 clients x depth 4, 90% point GETs over 4096 keys: the unordered f+1 read engine carries 90% of ops and consensus slots 10%"},
	{Name: "sim-shard4-txn", Why: "4 RKV shards, 4 clients x depth 4, 10% cross-shard (scatter MGET and 2PC MSET): shard, LockTable and MVCC dominate and consensus is a 2PC log"},
	{Name: "net-kv-d1", Net: true, Why: "3 replica + 2 memory-node OS processes on loopback TCP, 1 client x depth 1, KV 50/50 over 64 keys: the unloaded critical path on real sockets"},
	{Name: "net-kv-d8", Net: true, Why: "same fleet at depth 8: leader queueing, per-peer writer flushes and batching do the work, where socket-path levers should show"},
}

// metricSpec names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before it counts as a regression;
// Floor, in the metric's unit, is the absolute amount it must also worsen by
// (a few milliseconds of set-up swing by more than any share with the host's
// speed). Per-layer metrics carry neither.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
}

var endToEnd = []metricSpec{
	{"latency_p50_us", "us", "lower", 0.05, 0},
	{"latency_p95_us", "us", "lower", 0.15, 0},
	{"throughput_kops", "kops/s", "higher", 0.08, 0},
	{"allocs_per_op", "count", "lower", 0.05, 0},
	{"heap_live_mib", "MiB", "lower", 0.10, 0},
	{"setup_s", "s", "lower", 0.25, 0.2},
}

// virtualKeys are the end-to-end metrics that are virtual time on sim-*: a
// pure function of the seed, so two runs with one seed must give the same
// bits. On net-* the same names are wall clock.
var virtualKeys = []string{"latency_p50_us", "latency_p95_us", "throughput_kops"}

// sameSeedBound is the bound -compare holds the virtual-time metrics of a
// sim-* workload to when both result sets come from one seed: they repeat
// exactly, so any movement is the code's.
const sameSeedBound = 0.01

func isVirtual(metric string) bool {
	for _, k := range virtualKeys {
		if k == metric {
			return true
		}
	}
	return false
}

// perLayer lists the per-layer metrics of BENCHMARK.json as <layer>.<name>.
// A workload reports the ones its layers take part in; the rig metrics
// (ctbcast.*_us, swmr.*, xcrypto.*, ...) do not depend on the workload and
// are measured once per invocation.
var perLayer = []metricSpec{
	// Fabric wrapper counts, per completed op (exact on sim-*).
	{Name: "transport.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.rpc_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.ring_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.ringack_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.mem_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.summary_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.direct_msgs_per_op", Unit: "count", Better: "lower"},
	// Handler host time per completed op by entry channel, app spans removed.
	{Name: "transport.handler_ns_rpc", Unit: "ns", Better: "lower"},
	{Name: "transport.handler_ns_ring", Unit: "ns", Better: "lower"},
	{Name: "transport.handler_ns_ringack", Unit: "ns", Better: "lower"},
	{Name: "transport.handler_ns_mem", Unit: "ns", Better: "lower"},
	{Name: "transport.handler_ns_summary", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	// Two-Net loopback rig.
	{Name: "nettrans.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "nettrans.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "nettrans.stream_kmsgs_per_s", Unit: "kmsgs/s", Better: "higher"},
	{Name: "wire.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "xcrypto.sign_ns", Unit: "ns", Better: "lower"},
	{Name: "xcrypto.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "xcrypto.digest_ns_64B", Unit: "ns", Better: "lower"},
	{Name: "xcrypto.digest_ns_4KiB", Unit: "ns", Better: "lower"},
	{Name: "swmr.write_us", Unit: "us", Better: "lower"},
	{Name: "swmr.read_us", Unit: "us", Better: "lower"},
	{Name: "swmr.write_cpu_ns", Unit: "ns", Better: "lower"},
	{Name: "swmr.read_cpu_ns", Unit: "ns", Better: "lower"},
	{Name: "swmr.disagg_kib", Unit: "KiB", Better: "lower"},
	{Name: "msgring.deliver_us", Unit: "us", Better: "lower"},
	{Name: "msgring.cpu_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "tbcast.deliver_us", Unit: "us", Better: "lower"},
	{Name: "tbcast.cpu_ns_per_bcast", Unit: "ns", Better: "lower"},
	{Name: "ctbcast.fast_us", Unit: "us", Better: "lower"},
	{Name: "ctbcast.slow_us", Unit: "us", Better: "lower"},
	{Name: "ctbcast.fast_cpu_ns", Unit: "ns", Better: "lower"},
	{Name: "ctbcast.slow_cpu_ns", Unit: "ns", Better: "lower"},
	{Name: "ctbcast.slow_share", Unit: "share", Better: "lower"},
	{Name: "ctbcast.summaries_per_kop", Unit: "count", Better: "lower"},
	{Name: "consensus.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "consensus.smr_self_us", Unit: "us", Better: "lower"},
	{Name: "consensus.ops_per_slot", Unit: "count", Better: "higher"},
	{Name: "consensus.view_changes", Unit: "count", Better: "lower"},
	{Name: "consensus.late_proposals", Unit: "count", Better: "lower"},
	{Name: "consensus.local_mib", Unit: "MiB", Better: "lower"},
	{Name: "consensus.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "consensus.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "consensus.read_fast_share", Unit: "share", Better: "higher"},
	{Name: "consensus.read_fallbacks", Unit: "count", Better: "lower"},
	{Name: "app.apply_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "app.apply_share", Unit: "share", Better: "lower"},
	{Name: "app.kv_apply_ns", Unit: "ns", Better: "lower"},
	{Name: "app.rkv_apply_ns", Unit: "ns", Better: "lower"},
	{Name: "app.orderbook_apply_ns", Unit: "ns", Better: "lower"},
	{Name: "app.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.single_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.mget_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.txn_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.cross_share", Unit: "share", Better: "lower"},
	{Name: "shard.aborted_share", Unit: "share", Better: "lower"},
	{Name: "shard.decided_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "cluster.build_ms", Unit: "ms", Better: "lower"},
	{Name: "baselines.unrepl_p50_us", Unit: "us", Better: "lower"},
	{Name: "baselines.mu_p50_us", Unit: "us", Better: "lower"},
	{Name: "baselines.minbft_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// perLayerNet lists the per-layer metrics only a net-* workload has: the
// client Net's own counters and the fleet's launch and CPU. They are printed
// and kept in the ledger with the workload; BENCHMARK.json lists none of them.
var perLayerNet = []metricSpec{
	{Name: "nettrans.client_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "nettrans.dropped", Unit: "count", Better: "lower"},
	{Name: "nettrans.redials", Unit: "count", Better: "lower"},
	{Name: "nettrans.queue_full", Unit: "count", Better: "lower"},
	{Name: "wallclock.launch_ms", Unit: "ms", Better: "lower"},
	{Name: "wallclock.fleet_cpu_share", Unit: "share", Better: "lower"},
}

// value is one measured metric: the number, and how many samples stand
// behind it (0 when the metric is a single reading, not a statistic).
type value struct {
	V float64
	N int
}

// metrics maps metric name to its measured value for one run.
type metrics map[string]value

func (m metrics) set(name string, v float64, n int) { m[name] = value{V: v, N: n} }

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
