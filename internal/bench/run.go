package bench

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// maxWait bounds one request's completion (well beyond any sane latency).
const maxWait = 500 * sim.Millisecond

// RunClosedLoop drives n sequential requests (after warmup unrecorded
// ones) through the system and records end-to-end latencies.
func RunClosedLoop(s System, wl Workload, warmup, n int) *Recorder {
	rec := NewRecorder(n)
	eng := s.Engine()
	for i := 0; i < warmup+n; i++ {
		payload := wl.Next()
		done := false
		var lat sim.Duration
		s.Invoke(payload, func(_ []byte, l sim.Duration) { done, lat = true, l })
		if cluster.SyncWait(eng, maxWait, func() bool { return done }) != nil {
			continue // timed out; do not record (visible as a short count)
		}
		if i >= warmup {
			rec.Add(lat)
		}
	}
	return rec
}

// RunPipelined keeps `outstanding` requests in flight and reports the
// throughput in operations per second of virtual time, plus the latency
// recorder. This is the §9 throughput experiment (uBFT interleaves two
// requests per consensus slot slack).
func RunPipelined(s System, wl Workload, outstanding, n int) (opsPerSec float64, rec *Recorder) {
	rec = NewRecorder(n)
	eng := s.Engine()
	completed, issued := 0, 0
	start := eng.Now()

	var pump func()
	pump = func() {
		for issued-completed < outstanding && issued < n {
			issued++
			s.Invoke(wl.Next(), func(_ []byte, l sim.Duration) {
				completed++
				rec.Add(l)
				pump()
			})
		}
	}
	pump()
	cluster.SyncWait(eng, sim.Duration(n)*maxWait/100, func() bool { return completed >= n })
	elapsed := eng.Now().Sub(start)
	if elapsed <= 0 || completed == 0 {
		return 0, rec
	}
	return float64(completed) / (float64(elapsed) / 1e9), rec
}
