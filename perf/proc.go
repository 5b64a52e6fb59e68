package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark: VmHWM from
// /proc/self/status, falling back to getrusage's ru_maxrss (KiB on Linux)
// where /proc is not mounted.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter accumulates the process-level costs of the timed phase — wall, CPU,
// heap allocations, GC — over one or more timed windows, so work done
// between windows (generating the next pass's tables) is not charged.
type meter struct {
	Wall       time.Duration
	CPU        time.Duration
	Mallocs    uint64
	AllocBytes uint64
	GCCycles   uint32
	GCPause    time.Duration

	t0  time.Time
	c0  time.Duration
	ms0 runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.c0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.Wall += time.Since(m.t0)
	m.CPU += cpuTime() - m.c0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Mallocs += ms.Mallocs - m.ms0.Mallocs
	m.AllocBytes += ms.TotalAlloc - m.ms0.TotalAlloc
	m.GCCycles += ms.NumGC - m.ms0.NumGC
	m.GCPause += time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs)
}
