package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted samples by
// linear interpolation between closest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of unsorted samples; NaN when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it, and returns it with its value. With
// fewer than twenty samples it falls back to the median (p = 50).
func tailPercentile(samples []float64) (p, value float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := float64(len(s))
	for _, cand := range tailPercentiles {
		if n*(1-cand/100) >= 10-1e-9 {
			return cand, quantile(s, cand/100)
		}
	}
	return 50, quantile(s, 0.5)
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats is a runtime/metrics reading.
type goStats struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU, idleCPU float64
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocObjects: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3), idleCPU: f(4)}
}

// setGoLayers records the go.* per-layer metrics for the interval
// between two readings that processed items units of work.
func setGoLayers(out *outcome, before, after goStats, items int64) {
	if items > 0 {
		out.set("go.allocs_per_item", float64(after.allocObjects-before.allocObjects)/float64(items))
		out.set("go.alloc_bytes_per_item", float64(after.allocBytes-before.allocBytes)/float64(items))
	}
	busy := (after.totalCPU - before.totalCPU) - (after.idleCPU - before.idleCPU)
	if busy > 0 {
		out.set("go.gc_cpu_share", (after.gcCPU-before.gcCPU)/busy)
	}
}

// Every run times several set-ups and reports their median: at least
// minSetups, and more while they are cheap — up to maxSetups or until
// setupBudget of extra set-up time is spent.
const (
	minSetups   = 9
	maxSetups   = 101
	setupBudget = 1500 * time.Millisecond
)

// moreSetups extends samples (in seconds) by calling setup.
func moreSetups(samples []float64, setup func() (float64, error)) ([]float64, error) {
	start := time.Now()
	for len(samples) < minSetups || (len(samples) < maxSetups && time.Since(start) < setupBudget) {
		s, err := setup()
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// roundAll rounds each value to digits decimals, for notes.
func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}
