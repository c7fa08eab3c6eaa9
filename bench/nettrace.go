package main

import (
	"fmt"
	"time"
)

// This file is the traced run of the net-* workloads. It splits the
// measuring time in three: a window on the ubft-node fleet (launch time, the
// fleet's share of the CPU, the client Net's counters), a window with all six
// members hosted in the harness and tracing off, and the same with every
// endpoint and application wrapped. The last two differ only by the tracer,
// so their CPU per operation gives the tracing overhead.

// replicaTotals sums the accessors of the harness-hosted replicas, each read
// on its own host loop.
type replicaTotals struct {
	fast, slow, summaries, late uint64
	views, decided, localBytes  int
}

func (d *deployment) replicaTotals() replicaTotals {
	var t replicaTotals
	for _, s := range d.servers {
		r := s.m.Replica
		if r == nil {
			continue
		}
		done := make(chan struct{})
		s.host.Do(func() {
			f, sl, sm := r.GroupStats()
			t.fast, t.slow, t.summaries = t.fast+f, t.slow+sl, t.summaries+sm
			t.late += r.LateProposals()
			if v := int(r.View()); v > t.views {
				t.views = v
			}
			if n := r.DecidedCount(); n > t.decided {
				t.decided = n
			}
			if t.localBytes == 0 {
				t.localBytes = r.LocalBytes()
			}
			close(done)
		})
		<-done
	}
	return t
}

// inProcess is one measured window with all six members hosted in the
// harness: the window, the failure counts, and what the fabric wrapper and
// the replicas' accessors counted over the window and its drain.
type inProcess struct {
	w                 *window
	attempted, failed int
	submitted         int // operations submitted in the window (all of them ordered)
	sums              *traceSums
	before, after     replicaTotals
}

func inProcessWindow(depth int, cfg runCfg, length time.Duration, tr *tracer) (*inProcess, error) {
	d, p, _, err := setUp(depth, cfg.seed, func() (*deployment, error) { return deployInProcess(cfg.seed, tr) })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ip := &inProcess{before: d.replicaTotals(), submitted: -p.attempted}
	if tr != nil {
		tr.resetSums()
	}
	if ip.w, err = p.measure(length); err != nil {
		return nil, err
	}
	ip.submitted += p.attempted
	ip.after = d.replicaTotals()
	if tr != nil {
		ip.sums = tr.totals()
	}
	if err := p.readBack(); err != nil {
		return nil, err
	}
	ip.attempted, ip.failed = p.attempted, p.failed
	return ip, nil
}

// fleetLayerMetrics reports what a window on the fleet shows of the layers.
func fleetLayerMetrics(m metrics, fr *fleetRun, seed int64) error {
	disagg, err := memNodeKiB(seed)
	if err != nil {
		return err
	}
	m.set("swmr.disagg_kib", disagg, 0)
	ops := len(fr.w.lats)
	st := fr.w.netStats
	m.set("consensus.latency_p99_us", percentile(fr.w.lats, 99), ops)
	m.set("nettrans.client_msgs_per_op", ratio(float64(st.MsgsSent), float64(ops)), ops)
	m.set("nettrans.dropped", float64(st.Dropped), 0)
	m.set("nettrans.redials", float64(st.Redials), 0)
	m.set("nettrans.queue_full", float64(st.QueueFull), 0)
	m.set("cluster.cpu_us_per_op", fr.cpuUsPerOp(), ops)
	m.set("wallclock.launch_ms", fr.launchMs, 0)
	// Both terms per operation, so the warm-up, drain and read-back the
	// fleet also served do not inflate its share.
	self := ratio(float64(fr.w.selfCPU), float64(ops))
	fleet := ratio(float64(fr.fleetCPU), float64(fr.p.attempted))
	m.set("wallclock.fleet_cpu_share", ratio(fleet, self+fleet), ops)
	return nil
}

func runNetTraced(name, nodeBin string, depth int, cfg runCfg, res *result) (*result, error) {
	m := res.metrics
	fr, err := runFleet(nodeBin, depth, cfg.seed, cfg.window/3)
	if err != nil {
		return nil, err
	}
	plain, err := inProcessWindow(depth, cfg, cfg.window/3, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ip, err := inProcessWindow(depth, cfg, cfg.window/3, tr)
	if err != nil {
		return nil, err
	}
	res.attempted = fr.p.attempted + plain.attempted + ip.attempted
	res.failed = fr.p.failed + plain.failed + ip.failed

	ops := len(ip.w.lats)
	transportMetrics(m, ip.sums, ops, float64(ip.w.selfCPU))
	if err := fleetLayerMetrics(m, fr, cfg.seed); err != nil {
		return nil, err
	}
	before, after := ip.before, ip.after
	fast, slow := after.fast-before.fast, after.slow-before.slow
	decided := after.decided - before.decided
	m.set("ctbcast.slow_share", ratio(float64(slow), float64(fast+slow)), int(fast+slow))
	m.set("ctbcast.summaries_per_kop", ratio(float64(after.summaries-before.summaries)*1000, float64(ops)), ops)
	m.set("consensus.ops_per_slot", ratio(float64(ip.submitted), float64(decided)), decided)
	m.set("consensus.view_changes", float64(after.views), 0)
	m.set("consensus.late_proposals", float64(after.late-before.late), 0)
	m.set("consensus.local_mib", float64(after.localBytes)/(1<<20), 0)
	base := ratio(float64(plain.w.selfCPU), float64(len(plain.w.lats)))
	with := ratio(float64(ip.w.selfCPU), float64(ops))
	m.set("trace.overhead_share", ratio(with-base, base), ops)
	if res.traceFile, err = tr.write(cfg.outDir, name, cfg.seed); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}
