package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// This file is the committed trajectory: a result set is every metric of a
// run of the benchmark with its sample count and where it was measured, the
// rows under ledger/ are result sets, and -compare / -agree judge two of
// them by the bounds in spec.go.

// ledgerMetric is one metric in a result set.
type ledgerMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// ledgerWorkload is one workload's part of a result set.
type ledgerWorkload struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]ledgerMetric `json:"end_to_end,omitempty"`
	PerLayer  map[string]ledgerMetric `json:"per_layer,omitempty"`
}

// resultSet is one ledger row. Rigs holds the per-layer metrics that do not
// depend on the workload, measured once per invocation.
type resultSet struct {
	Go         string                     `json:"go"`
	NProc      int                        `json:"nproc"`
	Commit     string                     `json:"commit"`
	Seed       int64                      `json:"seed"`
	RunSeconds int                        `json:"run_seconds"`
	Rigs       map[string]ledgerMetric    `json:"rigs,omitempty"`
	Workloads  map[string]*ledgerWorkload `json:"workloads"`
}

func newResultSet(seed int64, seconds int) *resultSet {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &resultSet{
		Go: runtime.Version(), NProc: runtime.NumCPU(), Commit: commit,
		Seed: seed, RunSeconds: seconds, Workloads: map[string]*ledgerWorkload{},
	}
}

// ledgerMetrics keeps the metrics of specs that m holds: one that does not
// apply is absent from the ledger, so a 0 there is always a measured 0.
func ledgerMetrics(specs []metricSpec, m metrics) map[string]ledgerMetric {
	out := map[string]ledgerMetric{}
	for _, spec := range specs {
		if v, ok := m[spec.Name]; ok {
			out[spec.Name] = ledgerMetric{Value: v.V, Unit: spec.Unit, N: v.N}
		}
	}
	return out
}

func (s *resultSet) add(spec workloadSpec, r *result) {
	w := s.Workloads[r.workload]
	if w == nil {
		w = &ledgerWorkload{}
		s.Workloads[r.workload] = w
	}
	w.Attempted += r.attempted
	w.Failed += r.failed
	out := ledgerMetrics(specsFor(spec, r.traced), r.metrics)
	if r.traced {
		w.PerLayer = out
	} else {
		w.EndToEnd = out
	}
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// worse returns by what share of old the metric got worse (negative: it got
// better), in the metric's own direction.
func worse(spec metricSpec, old, cur float64) float64 {
	d := ratio(cur-old, old)
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

// past reports whether cur is worse than old by more than bound as a share
// and by more than the metric's floor as an amount.
func past(spec metricSpec, bound, old, cur float64) bool {
	amount := cur - old
	if spec.Better == "higher" {
		amount = -amount
	}
	return worse(spec, old, cur) > bound && amount > spec.Floor
}

// judge returns the bound the metric is held to on the workload, and false
// when it is not judged there at all. The virtual-time metrics of a sim-*
// workload repeat exactly per seed, so between two sets of one seed they are
// held to sameSeedBound; on net-* the same names are wall clock, which on a
// shared host only paired runs can resolve (README.md), so there they are
// printed as plain deltas.
func judge(w workloadSpec, spec metricSpec, sameSeed bool) (bound float64, judged bool) {
	switch {
	case !isVirtual(spec.Name):
		return spec.Bound, true
	case w.Net:
		return 0, false
	case sameSeed:
		return sameSeedBound, true
	}
	return spec.Bound, true
}

func printDelta(out io.Writer, spec metricSpec, o, c float64, verdict string) {
	line := fmt.Sprintf("  %-32s %14.6g -> %14.6g %-8s %+7.2f%% %s",
		spec.Name, o, c, spec.Unit, 100*worse(spec, o, c), verdict)
	fmt.Fprintln(out, strings.TrimRight(line, " "))
}

// compareLayer prints the per-layer metrics both maps hold as plain deltas.
func compareLayer(out io.Writer, specs []metricSpec, old, cur map[string]ledgerMetric) {
	for _, spec := range specs {
		o, has := old[spec.Name]
		c, has2 := cur[spec.Name]
		if has && has2 {
			printDelta(out, spec, o.Value, c.Value, "")
		}
	}
}

// compareSets prints, per workload and metric both sets hold, the change
// from old to cur: end-to-end metrics judged by their bounds, per-layer
// metrics as plain deltas. It reports whether no metric regressed.
func compareSets(out io.Writer, old, cur *resultSet) bool {
	ok := true
	fmt.Fprintf(out, "compare: %s seed %d -> %s seed %d (positive = worse)\n", old.Commit, old.Seed, cur.Commit, cur.Seed)
	if len(old.Rigs) > 0 && len(cur.Rigs) > 0 {
		fmt.Fprintln(out, "rigs")
		compareLayer(out, perLayer, old.Rigs, cur.Rigs)
	}
	for _, w := range workloads {
		ow, cw := old.Workloads[w.Name], cur.Workloads[w.Name]
		if ow == nil || cw == nil {
			continue
		}
		fmt.Fprintf(out, "%s\n", w.Name)
		if cw.Failed > ow.Failed {
			fmt.Fprintf(out, "  %-32s %d -> %d of %d  REGRESSION (any increase)\n", "failed", ow.Failed, cw.Failed, cw.Attempted)
			ok = false
		}
		for _, spec := range endToEnd {
			o, has := ow.EndToEnd[spec.Name]
			c, has2 := cw.EndToEnd[spec.Name]
			if !has || !has2 {
				continue
			}
			bound, judged := judge(w, spec, old.Seed == cur.Seed)
			verdict := "not judged (wall clock: paired runs decide)"
			if judged {
				verdict = fmt.Sprintf("(bound %g%%) ok", 100*bound)
				switch {
				case past(spec, bound, o.Value, c.Value):
					verdict = fmt.Sprintf("(bound %g%%) REGRESSION", 100*bound)
					ok = false
				case past(spec, bound, c.Value, o.Value):
					verdict = fmt.Sprintf("(bound %g%%) better", 100*bound)
				}
			}
			printDelta(out, spec, o.Value, c.Value, verdict)
		}
		compareLayer(out, specsFor(w, true), ow.PerLayer, cw.PerLayer)
	}
	return ok
}

// agreeFiles is the two-set check of one commit against itself: with one
// seed every virtual-time metric on sim-* must be bit-identical, and every
// other judged end-to-end metric must sit within its bound in both
// directions. Exit status 0 means the sets agree.
func agreeFiles(out io.Writer, pathA, pathB string) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		aw, bw := a.Workloads[w.Name], b.Workloads[w.Name]
		if aw == nil || bw == nil {
			continue
		}
		for _, spec := range endToEnd {
			x, y := aw.EndToEnd[spec.Name].Value, bw.EndToEnd[spec.Name].Value
			bound, judged := judge(w, spec, false)
			verdict := "agree"
			switch {
			case !judged:
				verdict = "not judged (wall clock)"
			case a.Seed == b.Seed && isVirtual(spec.Name):
				if x != y {
					verdict = "DIFFER (must be bit-identical)"
					status = 1
				}
			case past(spec, bound, x, y) || past(spec, bound, y, x):
				verdict = fmt.Sprintf("DIFFER (%+.2f%%, bound %g%%)", 100*worse(spec, x, y), 100*bound)
				status = 1
			}
			fmt.Fprintf(out, "%-16s %-20s %14.6g %14.6g  %s\n", w.Name, spec.Name, x, y, verdict)
		}
	}
	return status
}
