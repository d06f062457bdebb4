package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// meter takes the process-level measurements around one pass: wall time,
// heap allocations, process CPU time and the heap a pass leaves live.
type meter struct {
	baseHeap uint64
	mallocs  uint64
	cpu      time.Duration
	t0       time.Time

	wall     time.Duration
	allocs   uint64        // mallocs over the timed section
	cpuUsed  time.Duration // user+system CPU over the timed section
	retained float64       // MB still live after the pass, above the baseline
}

// liveHeap is HeapAlloc after two collections: the first finishes any
// cycle in flight and runs finalizers, the second frees what they held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// baseline records the live heap before the pass builds anything; inputs
// and references are already allocated and so fall out of retained.
func (m *meter) baseline() { m.baseHeap = liveHeap() }

// start opens the timed section.
func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs = ms.Mallocs
	m.cpu = cpuTime()
	m.t0 = time.Now()
}

// stop closes the timed section.
func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	m.cpuUsed = cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocs = ms.Mallocs - m.mallocs
}

// retain measures what the pass left live; call it while the engine and
// store are still referenced.
func (m *meter) retain() {
	m.retained = (float64(liveHeap()) - float64(m.baseHeap)) / (1 << 20)
}

// median of a non-empty sample (the slice is sorted in place).
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the q-quantile by linear interpolation between the
// two nearest ranks (the slice is sorted in place); 0 for an empty sample.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
