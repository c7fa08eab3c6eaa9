package consensus

import (
	"repro/internal/ctbcast"
	"repro/internal/ids"
)

// accepts is onConsensusMsg for a message that cannot wait: whether it was
// accepted. A Wait verdict panics; tests of the wait call onConsensusMsg.
func (r *Replica) accepts(p ids.ID, m []byte) bool {
	v := r.onConsensusMsg(p, m)
	if v == ctbcast.Wait {
		panic("consensus test: a message that cannot wait got the Wait verdict")
	}
	return v == ctbcast.Accept
}

// CheckpointCertChecks reports, for the external tests, how many CHECKPOINT
// certificates the replica verified on its main process.
func (r *Replica) CheckpointCertChecks() uint64 { return r.cpCertChecks }

// ViewRecords reports, for the external bounded-memory tests, how many
// per-view view-change records the replica holds and the lowest view any of
// them is keyed by.
func (r *Replica) ViewRecords() (n int, lowest View) {
	lowest = ^View(0)
	for v := range r.views {
		n++
		lowest = min(lowest, v)
	}
	return n, lowest
}
