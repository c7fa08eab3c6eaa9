//go:build race

package bench

// Under the race detector sync.Pool drops a share of what is put back, at
// random, so pooled wire writers are allocated again: measured 60
// allocations per fast-path request where a plain build reads 45 (91 where
// it read 75 before ring frames were shared), and 352-353 per slow-path
// request where a plain build reads 300.
func init() { raceAllocs, raceSlowAllocs = 16, 64 }
