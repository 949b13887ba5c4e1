package main

import (
	"runtime"
	"time"
)

// hostMark is a snapshot of the process's cumulative host costs; the
// difference of two marks is what a phase cost.
type hostMark struct {
	at         time.Time
	cpu        time.Duration // user + system CPU time of the process
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	gcPause    time.Duration
}

func markHost() hostMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpu, _ := rusage()
	return hostMark{
		at:         time.Now(),
		cpu:        cpu,
		totalAlloc: m.TotalAlloc,
		mallocs:    m.Mallocs,
		numGC:      m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
	}
}

// heapLiveMB forces a collection and returns the bytes still reachable.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// hostMetrics fills the host.* per-layer metrics for a phase of ops
// operations between two marks.
func hostMetrics(v values, from, to hostMark, ops int) {
	n := float64(max(ops, 1))
	v["host.cpu_ms_per_op"] = ms(to.cpu-from.cpu) / n
	v["host.allocs_per_op"] = float64(to.mallocs-from.mallocs) / n
	v["host.gc_cycles"] = float64(to.numGC - from.numGC)
	v["host.gc_pause_ms"] = ms(to.gcPause - from.gcPause)
	_, rssKB := rusage()
	v["host.peak_rss_mb"] = float64(rssKB) / 1024
}
