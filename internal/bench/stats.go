// Package bench is the paper-reproduction harness: workload generators,
// latency statistics and one runner per table/figure of the evaluation
// (§7). Each figure function returns structured rows and can print them in
// the same layout the paper uses, so the paper-vs-measured comparison can
// be regenerated mechanically (README.md, "Running").
package bench

import (
	"sort"

	"repro/internal/sim"
)

// Recorder accumulates latency samples and answers percentile queries.
type Recorder struct {
	samples []sim.Duration
	sorted  bool
}

// NewRecorder returns an empty recorder with capacity for n samples.
func NewRecorder(n int) *Recorder { return &Recorder{samples: make([]sim.Duration, 0, n)} }

// Add records one sample.
func (r *Recorder) Add(d sim.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

func (r *Recorder) sort() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank. It panics on an empty recorder: asking for percentiles of
// nothing is always a harness bug.
func (r *Recorder) Percentile(p float64) sim.Duration {
	if len(r.samples) == 0 {
		panic("bench: percentile of empty recorder")
	}
	r.sort()
	return r.samples[min(max(int(p/100*float64(len(r.samples))+0.5)-1, 0), len(r.samples)-1)]
}

// Median returns the 50th percentile.
func (r *Recorder) Median() sim.Duration { return r.Percentile(50) }
