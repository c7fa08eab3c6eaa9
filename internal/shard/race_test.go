//go:build race

package shard_test

// Under the race detector sync.Pool drops a share of what is put back, at
// random, so pooled wire writers are allocated again: a warm cross-shard
// operation measured 49.5-50 allocations where a plain build reads 19
// (52-53.5 where it read 22).
func init() { raceCrossShardAllocs = 32 }
