package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap forces a collection and returns what survived it.
func liveHeap() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

func mallocs() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs
}

// meter measures wall time, CPU time and allocations over a region that
// may be paused (the mid-stream heap measurement stops every clock).
type meter struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64

	t0   time.Time
	cpu0 time.Duration
	m0   uint64
}

func (m *meter) start() {
	m.m0 = mallocs()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	m.cpu += cpuTime() - m.cpu0
	m.mallocs += mallocs() - m.m0
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the nearest-rank p-th percentile of v (0 for none).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
