package app

import "repro/internal/sim"

// Flip is the paper's toy application (§7.1): it reverses its input.
// Requests and responses are 32 B in the paper's Figure 7 configuration.
type Flip struct {
	count uint64
	out   []byte // every answer is appended here (StateMachine.Apply)
}

// NewFlip returns a fresh Flip instance.
func NewFlip() *Flip { return &Flip{} }

// Apply reverses the request bytes into the one buffer Flip keeps.
func (f *Flip) Apply(req []byte) []byte {
	f.count++
	out := append(f.out[:0], req...)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	f.out = out
	return out
}

// Snapshot serializes the (tiny) state.
func (f *Flip) Snapshot() []byte {
	return []byte{
		byte(f.count), byte(f.count >> 8), byte(f.count >> 16), byte(f.count >> 24),
		byte(f.count >> 32), byte(f.count >> 40), byte(f.count >> 48), byte(f.count >> 56),
	}
}

// Restore resets the counter from a snapshot.
func (f *Flip) Restore(snap []byte) {
	f.count = 0
	for i := 0; i < 8 && i < len(snap); i++ {
		f.count |= uint64(snap[i]) << (8 * i)
	}
}

// ExecCost is essentially one buffer pass.
func (f *Flip) ExecCost(req []byte) sim.Duration {
	return sim.Duration(len(req)) / 10 // ~0.1 ns per byte
}
