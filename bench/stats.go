package main

import (
	"sort"
	"syscall"
	"time"
)

// percentile estimates the p-th percentile (0 < p <= 100) of xs as the mean
// of the order statistics within half a percentile rank of p (ranks
// (p-0.5)% to (p+0.5)% of the sample; the nearest rank alone for a sample too
// small to hold more). Against the single nearest-rank value this is steadier
// from run to run on the wall clock, and on the simulator it is not quantised
// to the 1 ns virtual clock. An empty sample gives 0. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	lo, hi := int((p-0.5)/100*n), int((p+0.5)/100*n+0.5)
	if hi > len(xs) {
		hi = len(xs)
	}
	if lo >= hi {
		lo = hi - 1
	}
	if lo < 0 {
		lo = 0
	}
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// median returns the middle of xs (mean of the two middle values for an
// even count), and 0 for an empty sample. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, and 0 when b is 0: per-op figures of a run that completed
// nothing are reported as 0 beside its failed count, not as NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the CPU time (user+sys) consumed so far by this process
// and by the child processes it has already reaped.
func cpuTime() (self, children time.Duration) {
	read := func(who int) time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return read(syscall.RUSAGE_SELF), read(syscall.RUSAGE_CHILDREN)
}
