//go:build race

package bench

// Under the race detector sync.Pool drops a share of what is put back, at
// random, so pooled wire writers are allocated again: measured 62-63
// allocations per fast-path request where a plain build reads 47 (91 where
// it read 75 before ring frames were shared).
func init() { raceAllocs = 16 }
