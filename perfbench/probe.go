package main

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe's mean wall time and median CPU time on an otherwise idle
// 2-vCPU Intel Xeon VM: the speed every timed metric is scaled to.
const (
	probeNominalMS    = 1.85
	probeNominalCPUMS = 1.82
)

// probeShare is the share of a timed phase's time the probes' timed runs
// take; their untimed runs take as much again.
const probeShare = 0.04

// prober times a fixed piece of benchmark-owned work: a float DP with table
// lookups, map inserts and lookups, and a random walk over a 256 KiB table,
// the three kinds of work a solve spends its time on. The benchmark runs it
// between units of load, never alongside them, so its time tracks the speed
// the host gives the benchmark at that moment. On a shared host that speed
// drifts by a quarter or more over minutes; scaling each run's times by the
// nominal probe time over the run's (factor, cpuFactor) takes most of the
// drift out, because it moves the probe and the program alike. The probe
// does not call the program, so a change to the program moves the scaled
// times and leaves the probe as it was.
type prober struct {
	a, b      []int32
	tab       []float64
	prev, cur []float64
	next      []uint32
	m         map[int]int
	sink      float64
	ms        []float64     // wall time of every probe's timed run, ms
	cpu       []float64     // CPU time of every probe's thread, ms
	phase     time.Duration // wall time of the timed runs since the timed phase began
}

func newProber() *prober {
	r := rand.New(rand.NewSource(1))
	p := &prober{
		a:    make([]int32, 300),
		b:    make([]int32, 300),
		tab:  make([]float64, 64*64),
		prev: make([]float64, 301),
		cur:  make([]float64, 301),
		next: make([]uint32, 1<<16),
		m:    make(map[int]int, 8192),
	}
	for i := range p.a {
		p.a[i], p.b[i] = int32(r.Intn(64)), int32(r.Intn(64))
	}
	for i := range p.tab {
		p.tab[i] = r.Float64() - 0.3
	}
	// One cycle through every slot, so the walk never settles in a short loop.
	perm := r.Perm(len(p.next))
	for i := range perm {
		p.next[perm[i]] = uint32(perm[(i+1)%len(perm)])
	}
	return p
}

// probe runs the work once and records its time, with no GC cycle
// running: it first waits for a running cycle to finish, and keeps a new
// one from starting until it is done. A cycle marking on the other core
// slowed the probe by a quarter, so without this the probe would run
// slower the more the program allocates, and scaling would hide a change
// in the program's allocation. An untimed run of the work comes first, so
// the timed one finds its data in cache whatever ran before it: a probe
// straight after a solve otherwise ran a quarter slower than one after
// another probe. Neither the wait nor the untimed run is part of the
// probe's time.
func (p *prober) probe() time.Duration {
	gc := debug.SetGCPercent(-1) // returns once no GC cycle is running
	w0 := time.Now()
	runtime.LockOSThread()
	p.work()
	c0 := threadCPU()
	t0 := time.Now()
	p.work()
	wall := time.Since(t0)
	p.cpu = append(p.cpu, ms(threadCPU()-c0))
	runtime.UnlockOSThread()
	debug.SetGCPercent(gc)
	p.ms = append(p.ms, ms(wall))
	p.phase += wall
	return time.Since(w0)
}

// keepShare runs probes until, since the timed phase began, their timed
// runs have taken probeShare of the given time under load, and returns the
// time the probes took now, untimed runs included; the wait for a GC cycle
// is the program's and counts as load. Called between units of load, it
// spreads the probes evenly over the timed phase whatever the length of a
// unit.
func (p *prober) keepShare(load time.Duration) time.Duration {
	var took time.Duration
	for p.phase < time.Duration(probeShare*float64(load)) {
		took += p.probe()
	}
	return took
}

// threadCPU is the calling thread's CPU time. Time the hypervisor steals
// from the thread is not in it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func (p *prober) work() {
	prev, cur := p.prev, p.cur
	for j := range prev {
		prev[j] = 0
	}
	for i := 1; i <= len(p.a); i++ {
		row := p.tab[p.a[i-1]*64 : p.a[i-1]*64+64]
		for j := 1; j <= len(p.b); j++ {
			v := prev[j-1] + row[p.b[j-1]]
			if prev[j] > v {
				v = prev[j]
			}
			if cur[j-1] > v {
				v = cur[j-1]
			}
			cur[j] = v
		}
		prev, cur = cur, prev
	}
	p.sink += prev[len(p.b)]
	m := p.m
	clear(m)
	for i := 0; i < 6000; i++ {
		m[i*7919%100003] = i
	}
	s := 0
	for i := 0; i < 6000; i++ {
		s += m[i*31%100003]
	}
	at := uint32(s & 0xffff)
	for i := 0; i < 60000; i++ {
		at = p.next[at]
	}
	p.sink += float64(at)
}

// mean is the mean wall time of the probes' timed runs, ms.
func (p *prober) mean() float64 {
	var sum float64
	for _, v := range p.ms {
		sum += v
	}
	return sum / float64(len(p.ms))
}

// factor is what a run's wall times are multiplied by: the nominal probe
// time over the run's mean probe time. The mean, not the median: when the
// host shares a core out in time slices, most probes fit in a slice and a
// few wait a whole one, so only the mean carries the share of time the
// benchmark lost, as a solve many times longer than a probe does.
func (p *prober) factor() float64 {
	return probeNominalMS / p.mean()
}

// cpuFactor is what a run's CPU times are multiplied by: the nominal probe
// CPU time over the run's median. CPU time leaves out the time the thread
// waited, so the median suffices; it still moves with the speed of the
// core while the thread runs.
func (p *prober) cpuFactor() float64 {
	return probeNominalCPUMS / quantile(append([]float64(nil), p.cpu...), 0.5)
}
