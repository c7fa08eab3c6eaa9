//go:build race

package cluster_test

// Under the race detector sync.Pool drops a share of what is put back, at
// random, so pooled wire writers are allocated again: measured 13.54
// allocations per fast-path request where a plain build reads 3.33, 13-14
// while the gates read whole numbers and a plain build 3 (25-26 where
// it read 15 before ring frames, request frames and free-list misses were
// carved from blocks, 28-29 where
// it read 18 before ordered answers went into a buffer each application
// keeps, 30 where it read 20 before reply frames were recycled, 40 where it read 25 before ring
// acks and echoes were recycled, 60 where it read 45 before per-operation
// records were recycled, 91 where it read 75 before ring frames were shared),
// 37.99 per slow-path request where a plain build reads 4.08, 37-39 while
// the gates read whole numbers and a plain build 4 (56-58 where it
// read 5 before background signatures were reused jobs, 69-70 where it
// read 18 before signatures were carved and certificates appended into their
// messages, 77-78 where it read 26 before frames were carved, 81-82 where it
// read 29 before ordered answers were kept, 84 where it read 31 before reply
// frames were recycled, 110 where it read 48 before ring acks
// and echoes were recycled, 147-148 where it read 85 before certificates were
// read in place, 331-332 where it read 278 before register frames were
// reused, 352-353 where it read 300). The slow offset was 55 until its
// budget went from 6 to 5. A fresh deployment's first 300 requests read
// 14.8-15.9 on the fast path and 41.5-42.5 on the slow path where a plain
// build reads 4.87 and 7.93.
func init() {
	raceAllocs, raceSlowAllocs = 11, 36
	raceColdAllocs, raceColdSlowAllocs = 11, 35
}
