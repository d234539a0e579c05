package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile for it to be a measurement rather than the single largest
// sample in disguise.
const minBeyond = 10

// beyond returns how many of n samples lie above the nearest-rank
// p-quantile (0 < p < 1).
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	return n - rank
}

// percentileOK reports whether n samples support the p-quantile under
// the minBeyond rule.
func percentileOK(n int, p float64) bool {
	return n > 0 && beyond(n, p) >= minBeyond
}

// highestPercentile returns the highest of the candidate quantiles that
// n samples support, and false when none does.
func highestPercentile(n int, candidates []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if percentileOK(n, p) && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// quantile returns the nearest-rank p-quantile of xs (p in [0, 1]).
// xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median (the mean of the two middle values of
// an even-length sample), matching Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime returns the CPU time (user plus system) the process has used
// so far, over all its threads. Unlike wall time it leaves out time
// the process spent waiting or runnable but not running, and on a
// paravirtualised guest the kernel does not charge a task for the time
// the host stole from its vCPU, so the figure does not follow the
// host's steal.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
