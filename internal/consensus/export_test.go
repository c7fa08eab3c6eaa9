package consensus

// ViewRecords reports, for the external bounded-memory tests, how many
// entries the per-view view-change tables (vcShares, newViewSent,
// pendingNV) hold and the lowest view any of them is keyed by.
func (r *Replica) ViewRecords() (n int, lowest View) {
	lowest = ^View(0)
	note := func(v View) {
		n++
		lowest = min(lowest, v)
	}
	for v := range r.vcShares {
		note(v)
	}
	for v := range r.newViewSent {
		note(v)
	}
	for v := range r.pendingNV {
		note(v)
	}
	return n, lowest
}
