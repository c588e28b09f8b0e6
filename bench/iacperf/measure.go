package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"iaclan"
)

// repSample is one SimulateCampus call, timed from outside the program.
type repSample struct {
	res     iaclan.SimCampusResult
	err     error
	wall    time.Duration
	cpu     time.Duration // user + system CPU of the whole process
	slots   float64       // simulated airtime slots, summed over cells and trials
	mallocs uint64
	bytes   uint64
	speed   float64 // host speed during the rep (hostClock.take); timed reps only
}

// runRep runs one rep from a freshly collected heap, so every rep starts
// from the same memory state. MemStats is read only before and after the
// call: sampling the heap during a rep costs several percent of its time.
func runRep(cfg iaclan.SimConfig) repSample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	res, err := iaclan.SimulateCampus(cfg)
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return repSample{
		res:     res,
		err:     err,
		wall:    wall,
		cpu:     c1 - c0,
		slots:   campusSlots(res),
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
	}
}

// campusSlots is the simulated airtime of a campus run: each cell's mean
// airtime per trial times its trial count, summed over cells.
func campusSlots(res iaclan.SimCampusResult) float64 {
	var slots float64
	for _, c := range res.PerCell {
		slots += c.MeanSlots * float64(c.Trials)
	}
	return slots
}

// setupTimes times n SimulateCampus calls of cfg cut to one CFP cycle:
// world construction, scenario draw, generator and wheel arming, and
// aggregation, with almost no simulated traffic.
func setupTimes(cfg iaclan.SimConfig, n int) ([]float64, error) {
	cfg.Cycles = 1
	out := make([]float64, 0, n)
	for range n {
		runtime.GC()
		t0 := time.Now()
		if _, err := iaclan.SimulateCampus(cfg); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's resident-set high-water mark in MB (Linux
// reports Maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (the mean of the middle two for an
// even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (the default "exclusive"
// method), so the spreads iacperf prints match the ones a comparison
// script computes from its output.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
