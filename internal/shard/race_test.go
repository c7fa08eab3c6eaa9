//go:build race

package shard_test

// Under the race detector sync.Pool drops a share of what is put back, at
// random, so pooled wire writers are allocated again: a warm cross-shard
// operation measured 42.41-42.84 allocations where a plain build reads 11.90
// (49.5-50 where it read 19, 52-53.5 where it read 22), and 2.02 per fast
// read and 2.02 per point read where a plain build reads the same (4 and 4
// before frames were carved, 6 and 4 before a multi-key read's keys went
// into a slice the store keeps, 10-11 and 8-9 where it read 10 and 8 before
// reply frames, read answers and routed key slices were reused). The read
// offset was 1 until the fast read's budget went from 7 to 5.
func init() { raceCrossShardAllocs, raceReadAllocs = 32, 0 }
