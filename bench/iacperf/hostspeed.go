package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a shared host: other tenants slow every
// instruction by up to a third for minutes at a time, which moves the
// time metrics of a whole run with it. A hostClock measures that speed
// while the reps run, with a calibration kernel the benchmark owns and
// no change to the simulator can touch, so the time metrics can be
// reported in reference-box time: host time scaled by how fast the
// kernel ran during the rep.

// refKernelNs is the kernel's thread CPU time on the reference box at
// rest. Any constant would do for comparing two commits on one host; this
// one makes a host speed of 1 mean the reference box at rest.
const refKernelNs = 120_000

// kernelIters sizes one kernel call (about 120 µs); samplePeriod spaces
// them, so the clock takes about 0.6% of one CPU.
const (
	kernelIters  = 40_000
	samplePeriod = 20 * time.Millisecond
	kernelWords  = 2048 // 16 KiB table: stays in L1, so the simulator's cache use barely reaches it
)

// hostClock runs the calibration kernel every samplePeriod on a
// goroutine locked to its own OS thread, timed by that thread's CPU
// clock: time the thread waits for a CPU does not count, only how fast
// the CPU runs the kernel once it has one.
type hostClock struct {
	mu      sync.Mutex
	samples []float64 // kernel ns since the last take
	table   []uint64  // the sampling goroutine's table
	spare   []uint64  // take's table, for a rep too short to be sampled
	stop    chan struct{}
	done    chan struct{}
}

// startHostClock starts sampling. It fails where the thread CPU clock
// cannot be read; once one read succeeds, later ones do too.
func startHostClock() (*hostClock, error) {
	if _, err := threadCPUNs(); err != nil {
		return nil, fmt.Errorf("thread CPU clock: %w", err)
	}
	h := &hostClock{
		table: make([]uint64, kernelWords),
		spare: make([]uint64, kernelWords),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go h.sample()
	return h, nil
}

func (h *hostClock) sample() {
	defer close(h.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		ns := timeKernel(h.table)
		h.mu.Lock()
		h.samples = append(h.samples, ns)
		h.mu.Unlock()
	}
}

// Stop ends the sampling goroutine and returns once it has exited.
func (h *hostClock) Stop() {
	close(h.stop)
	<-h.done
}

// take returns the host speed since the previous take: refKernelNs over
// the median kernel time, so below 1 when the host runs slower than the
// reference box at rest. With no sample in the interval it runs the
// kernel once itself.
func (h *hostClock) take() float64 {
	h.mu.Lock()
	ns := median(h.samples)
	h.samples = h.samples[:0]
	h.mu.Unlock()
	if math.IsNaN(ns) { // no samples
		ns = timeKernel(h.spare)
	}
	return refKernelNs / ns
}

// timeKernel runs the kernel once over tab and returns the calling
// thread's CPU time for it, in ns.
func timeKernel(tab []uint64) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, _ := threadCPUNs() // startHostClock has read this clock once
	kernel(tab)
	t1, _ := threadCPUNs()
	return float64(t1 - t0)
}

// kernel is a xorshift walk over tab with table updates and a dependent
// floating-point chain: integer, floating-point and L1 work. It neither
// allocates nor writes pointers, so the garbage collector never makes it
// assist or wait on a write barrier.
func kernel(tab []uint64) {
	mask := uint64(len(tab) - 1)
	x := uint64(0x9e3779b97f4a7c15)
	f := 1.0
	for range kernelIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		tab[j] += x
		f = f*1.0000001 + float64(tab[(j*7)&mask]&1023)
	}
	tab[0] += x + uint64(f)
}

// threadCPUNs is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPUNs() (int64, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return ts.Nano(), nil
}
