package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// The quiescence invariant: once the network is synchronous and the last
// client operation has completed, a deployment goes quiet. Within quietWithin
// of virtual time the fabric carries nothing more towards any live node, and
// towards a dead replica only what Tail Broadcast owes it for ever: one probe
// per channel per capped retransmission interval.
const (
	quietWithin = 100 * sim.Millisecond
	// probeEvery is Tail Broadcast's capped retransmission interval (its
	// 200us floor doubled six times); quietWatch is how long the fabric is
	// then watched, a few of those.
	probeEvery = 12800 * sim.Microsecond
	quietWatch = 4 * probeEvery
)

// Quiescent checks the quiescence invariant from now: it runs the deployment
// for quietWithin (100ms), then watches the fabric for quietWatch (51.2ms)
// more. The caller has stopped submitting and the network is past GST with no
// partition it expects traffic across. A retransmission storm, a protocol
// timer that re-arms for ever, or a wedged view change that keeps rotating
// all fail it.
func (a *Assembly) Quiescent() error {
	if a.Net == nil {
		return fmt.Errorf("cluster: Quiescent requires a simulated network")
	}
	a.Eng.RunFor(quietWithin)
	nodes := append(a.Layout.Signers(), a.Layout.MemNodes...)
	inbound := func() (live uint64) {
		for _, id := range nodes {
			if a.alive(id) {
				live += a.Net.Node(id).Inbound()
			}
		}
		return live
	}
	// A dead replica is still owed the tail of every channel its group's live
	// replicas broadcast to it: a LOCKED channel per CTBcast group, their own
	// CTBcast stream and their auxiliary stream.
	probes := uint64(0)
	for _, reps := range a.Layout.Groups {
		dead := 0
		for _, id := range reps {
			if !a.alive(id) {
				dead++
			}
		}
		probes += uint64(dead * (len(reps) - dead) * (len(reps) + 2) * (int(quietWatch/probeEvery) + 1))
	}
	live0, all0 := inbound(), a.Net.MsgsSent
	a.Eng.RunFor(quietWatch)
	live, all := inbound()-live0, a.Net.MsgsSent-all0
	if live > 0 || all-live > probes {
		return fmt.Errorf("cluster: not quiescent %v after the last operation: in the next %v the fabric carried %d messages towards live nodes (want 0) and %d towards dead ones (want at most %d probes)",
			quietWithin, quietWatch, live, all-live, probes)
	}
	return nil
}
