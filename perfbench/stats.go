package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// clockBase anchors now(): monotonic nanoseconds since process start.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// cpuTime returns the process's user+sys CPU time (all threads, GC
// workers included). getrusage(RUSAGE_SELF) cannot fail on Linux.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnap is the subset of runtime.MemStats a round reads on both sides.
type memSnap struct {
	mallocs, bytes, pauseNs uint64
	numGC                   uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs, numGC: m.NumGC}
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, pauseNs: a.pauseNs - b.pauseNs, numGC: a.numGC - b.numGC}
}

// median of xs (xs is reordered); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.999999) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

// ratio is a/b, or 0 when b is 0 (a layer the run did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix is SplitMix64: the benchmark's only source of seeded
// randomness, so a seed fixes every input.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
