//go:build race

package bench

// Under the race detector sync.Pool drops a share of what is put back, at
// random, so pooled wire writers are allocated again: measured 40
// allocations per fast-path request where a plain build reads 25 (60 where
// it read 45 before per-operation records were recycled, 91 where it read 75
// before ring frames were shared), 110 per slow-path request where a plain
// build reads 48 (147-148 where it read 85 before certificates were read in
// place, 331-332 where it read 278 before register frames were reused,
// 352-353 where it read 300), and 10-11 per fast read
// and 8-9 per point read where a plain build reads 10 and 8.
func init() { raceAllocs, raceSlowAllocs, raceReadAllocs = 16, 64, 2 }
