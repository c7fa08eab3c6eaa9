//go:build race

package bench

// Under the race detector sync.Pool drops a share of what is put back, at
// random, so pooled wire writers are allocated again: measured 25-26
// allocations per fast-path request where a plain build reads 15 (28-29 where
// it read 18 before ordered answers went into a buffer each application
// keeps, 30 where it read 20 before reply frames were recycled, 40 where it read 25 before ring
// acks and echoes were recycled, 60 where it read 45 before per-operation
// records were recycled, 91 where it read 75 before ring frames were shared),
// 77-78 per slow-path request where a plain build reads 26 (81-82 where it
// read 29 before ordered answers were kept, 84 where it read 31 before reply
// frames were recycled, 110 where it read 48 before ring acks
// and echoes were recycled, 147-148 where it read 85 before certificates were
// read in place, 331-332 where it read 278 before register frames were
// reused, 352-353 where it read 300), and 4 per fast read and 4 per point
// read where a plain build reads the same (6 and 4 before a multi-key read's
// keys went into a slice the store keeps, 10-11 and 8-9 where it read 10 and
// 8 before reply frames, read answers and routed key slices were reused). The
// read offset was 1 until the fast read's budget went from 7 to 5.
func init() { raceAllocs, raceSlowAllocs, raceReadAllocs = 11, 55, 0 }
