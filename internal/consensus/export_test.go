package consensus

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
